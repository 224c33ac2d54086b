package rules

import (
	"errors"
	"fmt"
	"strings"
)

// Program is a rule set compiled once: templates, initial facts and the
// rules' match programs. It is read-only after Compile, so any number of
// engines, on any goroutines, may load one program (Engine.Load); each
// keeps its own working memory and conflict sets.
type Program struct {
	rules     []*prod
	templates map[string]*template
	facts     [][]Value // deffacts, asserted by every Load

	// keys lists the alpha memories the rules' patterns scan; a cond's
	// mem indexes it, and index 0 is all of working memory. deps[k]
	// lists the rules (indices into rules) with a pattern over keys[k].
	keys []relKey
	deps [][]int

	frame, stack int // the most variable slots and matched facts any rule needs
}

// Compile parses src and compiles its rules, tagging each with origin (a
// repository rule-set name or a built-in set's identifier), which firing
// records report so operators can tell which distributed rule set
// produced a decision.
func Compile(origin, src string) (*Program, error) {
	rs, facts, templates, err := parseAll(src)
	if err != nil {
		return nil, err
	}
	p := &Program{templates: templates, facts: facts, keys: []relKey{{}}, deps: [][]int{nil}}
	for _, r := range rs {
		p.rules = append(p.rules, p.compile(r, origin))
	}
	return p, nil
}

// prod is a Rule compiled into its match program.
type prod struct {
	*Rule
	origin  string
	conds   []cond
	npos    int      // positive patterns: an activation matched one fact for each
	actions []action // RHS, in order
	vars    []string // slot -> variable name, for firing records
}

// cond is one compiled condition element.
type cond struct {
	kind  ceKind
	pos   int    // cePattern: which of the activation's matched facts this is
	mem   int    // facts to scan: Program.keys index of the head's memory, or 0 for all of them
	terms []term // one per pattern position
	test  expr   // ceTest
}

// term is what one pattern position does to a candidate fact's atom.
type term struct {
	op   uint8
	slot int   // tBind, tCheck
	val  Value // tConst
}

const (
	tAny   uint8 = iota // ? — or the constant head the memory already guarantees
	tConst              // equal val
	tBind               // first occurrence of a variable: store in slot
	tCheck              // later occurrence: equal slot
)

// unify matches f against the pattern under frame, binding as it goes. A
// slot bound by a failed attempt is simply overwritten by the next one.
func (c *cond) unify(f *Fact, frame []Value) bool {
	if len(f.items) != len(c.terms) {
		return false
	}
	for i := range c.terms {
		switch t := &c.terms[i]; t.op {
		case tConst:
			if !equal(&t.val, &f.items[i]) {
				return false
			}
		case tBind:
			frame[t.slot] = f.items[i]
		case tCheck:
			if !equal(&frame[t.slot], &f.items[i]) {
				return false
			}
		}
	}
	return true
}

// pattern compiles one pattern of rule r under sc — the rule's variables
// so far, a name's index being its frame slot — which gains the variables
// the pattern binds, and registers r with the memory the pattern scans.
func (p *Program) pattern(r int, kind ceKind, pat []Value, sc *bindings) cond {
	c := cond{kind: kind, terms: make([]term, len(pat))}
	for i, v := range pat {
		switch {
		case !v.IsVariable():
			c.terms[i] = term{op: tConst, val: v}
		case v.Sym == "?":
		case sc.slot(v.Sym) >= 0:
			c.terms[i] = term{op: tCheck, slot: sc.slot(v.Sym)}
		default:
			c.terms[i] = term{op: tBind, slot: len(sc.names)}
			sc.names = append(sc.names, v.Sym)
		}
	}
	if pat[0].Kind == SymbolKind && !pat[0].IsVariable() {
		c.mem, c.terms[0] = p.key(pat[0].Sym, len(pat)), term{}
	}
	p.deps[c.mem] = append(p.deps[c.mem], r)
	return c
}

// key returns the index of (rel, arity) in the key table, adding it when absent.
func (p *Program) key(rel string, arity int) int {
	k := relKey{rel, arity}
	for i := 1; i < len(p.keys); i++ {
		if p.keys[i] == k {
			return i
		}
	}
	p.keys, p.deps = append(p.keys, k), append(p.deps, nil)
	return len(p.keys) - 1
}

// compile turns a parsed rule, the next of the program's, into its match
// program: variables become frame slots, tests and RHS expressions
// closures over them, and each pattern is bound to the memory it scans.
func (p *Program) compile(r *Rule, origin string) *prod {
	pr, ri := &prod{Rule: r, origin: origin}, len(p.rules)
	sc := &bindings{}
	factAddr := map[string]int{} // ?f <- (pattern): which matched fact ?f names
	slots := 0
	for _, ce := range r.ces {
		switch ce.kind {
		case cePattern:
			if ce.bindVar != "" {
				factAddr[ce.bindVar] = pr.npos
			}
			c := p.pattern(ri, cePattern, ce.pattern, sc)
			c.pos = pr.npos
			pr.npos++
			pr.conds = append(pr.conds, c)
		case ceNegated: // variables first seen under not stay local to it
			local := &bindings{names: append([]string(nil), sc.names...)}
			pr.conds = append(pr.conds, p.pattern(ri, ceNegated, ce.pattern, local))
			slots = max(slots, len(local.names))
		case ceTest:
			pr.conds = append(pr.conds, cond{kind: ceTest, test: compileExpr(ce.test, sc.slot)})
		}
	}
	pr.vars = sc.names
	p.frame = max(p.frame, slots, len(pr.vars))
	p.stack = max(p.stack, pr.npos)
	for _, act := range r.actions {
		pr.actions = append(pr.actions, p.compileAction(act, sc.slot, factAddr))
	}
	return pr
}

// action is one compiled RHS action; tuple is the firing activation's
// matched facts and e.frame holds its bindings.
type action func(e *Engine, tuple []*Fact) error

// compileAction compiles one RHS form. A malformed action compiles to one
// that fails when it runs, so the rule set still loads and its other rules
// still fire.
func (p *Program) compileAction(act sexpr, slot func(string) int, factAddr map[string]int) action {
	fail := func(err error) action { return func(*Engine, []*Fact) error { return err } }
	exprs := func(forms []sexpr) []expr {
		out := make([]expr, len(forms))
		for i, f := range forms {
			out[i] = compileExpr(f, slot)
		}
		return out
	}
	switch act.head() {
	case "assert":
		if len(act.list) != 2 || !act.list[1].isList() {
			return fail(errors.New("assert takes one fact form"))
		}
		form := act.list[1]
		items := exprs(form.list)
		if t, ok := p.templates[form.head()]; ok && isSlotForm(form) {
			var err error
			if items, err = t.compileForm(form, slot); err != nil {
				return fail(err)
			}
		}
		return func(e *Engine, _ []*Fact) error {
			var buf [8]Value
			tuple, err := evalAll(items, e.frame, buf[:0])
			if err != nil {
				return err
			}
			e.Assert(tuple...)
			if e.capturing {
				e.cap.buf = appendTuple(e.cap.buf, tuple)
				e.cap.mark(effAsserted)
			}
			return nil
		}
	case "retract":
		return func(e *Engine, tuple []*Fact) error {
			for _, item := range act.list[1:] {
				if item.atom == nil || !item.atom.IsVariable() {
					return fmt.Errorf("retract takes fact-address variables")
				}
				k, ok := factAddr[item.atom.Sym]
				if !ok {
					return fmt.Errorf("retract: %s is not a fact address", item.atom.Sym)
				}
				if e.capturing {
					e.cap.buf = appendTuple(e.cap.buf, tuple[k].items)
					e.cap.mark(effRetracted)
				}
				e.Retract(tuple[k].id)
			}
			return nil
		}
	case "call":
		if len(act.list) < 2 || act.list[1].atom == nil || act.list[1].atom.Kind != SymbolKind {
			return fail(errors.New("call needs a function name"))
		}
		name, items := act.list[1].atom.Sym, exprs(act.list[2:])
		return func(e *Engine, _ []*Fact) error {
			fn, ok := e.funcs[name]
			if !ok {
				return fmt.Errorf("call: unknown function %q", name)
			}
			args, err := evalAll(items, e.frame, e.args[:0])
			if err != nil {
				return err
			}
			e.args = args[:0]
			if e.capturing {
				e.cap.buf = append(e.cap.buf, name...)
				for _, v := range args {
					e.cap.buf = appendValue(append(e.cap.buf, ' '), v)
				}
				e.cap.mark(effCalled)
			}
			if err := fn(args); err != nil {
				return fmt.Errorf("call %s: %w", name, err)
			}
			return nil
		}
	default: // "log": parseDefrule admits no other head
		items := exprs(act.list[1:])
		return func(e *Engine, _ []*Fact) error {
			vals, err := evalAll(items, e.frame, nil)
			parts := make([]string, len(vals))
			for i, v := range vals {
				if parts[i] = v.String(); v.Kind == StringKind {
					parts[i] = v.Str
				}
			}
			if err == nil {
				e.logf("%s", strings.Join(parts, " "))
			}
			return err
		}
	}
}

// evalAll evaluates items under frame, appending the values to out.
func evalAll(items []expr, frame, out []Value) ([]Value, error) {
	for _, it := range items {
		v, err := it(frame)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
