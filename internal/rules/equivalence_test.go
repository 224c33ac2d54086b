package rules

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refEngine is the reference matcher the compiled engine must agree with,
// firing for firing: the textbook recognize-act cycle with nothing kept
// between firings. Every pattern scans all of working memory, every rule
// is re-matched from scratch after every firing, bindings are by name,
// expressions are walked as s-expressions, the agenda is fully sorted, and
// refraction is a set of "rule#id,id" keys that only grows. It is the
// engine this package shipped before rule sets were compiled, kept here
// because it is too simple to be wrong in the same way.
type refEngine struct {
	rs        []*Rule
	templates map[string]*template
	init      [][]Value // deffacts
	facts     []*Fact   // live, assertion order
	nextID    int
	fired     map[string]bool
	funcs     map[string]Callback
	trace     []Firing
}

// The reference engine's by-name environment: bindings grown one
// variable at a time, and expressions evaluated against them.

func newBindings() *bindings { return &bindings{} }

func (b *bindings) setVar(name string, v Value) {
	if i := b.slot(name); i >= 0 {
		b.vals[i] = v
		return
	}
	b.names, b.vals = append(b.names, name), append(b.vals, v)
}

// unify is unifies returning the extended environment: a copy of b plus
// the variables the match binds.
func unify(pattern []Value, f *Fact, b *bindings) (*bindings, bool) {
	if !unifies(pattern, f, b) {
		return nil, false
	}
	nb := &bindings{names: append([]string(nil), b.names...), vals: append([]Value(nil), b.vals...)}
	for i, pv := range pattern {
		if pv.IsVariable() && pv.Sym != "?" {
			nb.setVar(pv.Sym, f.items[i])
		}
	}
	return nb, true
}

// eval evaluates an expression under a by-name environment: compile
// against its names, run over its values.
func eval(e sexpr, b *bindings) (Value, error) { return compileExpr(e, b.slot)(b.vals) }

func newRefEngine(t *testing.T, src string) *refEngine {
	t.Helper()
	rs, facts, templates, err := parseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	r := &refEngine{rs: rs, templates: templates, init: facts, funcs: map[string]Callback{}}
	r.reload()
	return r
}

// reload is Engine.Load of the same rules: working memory stays, nothing
// counts as fired any more, and the initial facts are asserted.
func (r *refEngine) reload() {
	r.fired = map[string]bool{}
	for _, f := range r.init {
		r.assert(f...)
	}
}

func (r *refEngine) assert(items ...Value) int {
	for _, f := range r.facts {
		if sameTuple(f.items, items) {
			return f.id
		}
	}
	r.nextID++
	r.facts = append(r.facts, &Fact{id: r.nextID, items: append([]Value(nil), items...)})
	return r.nextID
}

func (r *refEngine) retract(id int) {
	for i, f := range r.facts {
		if f.id == id {
			r.facts = append(r.facts[:i:i], r.facts[i+1:]...)
			return
		}
	}
}

func (r *refEngine) retractMatching(pattern ...Value) int {
	n := 0
	for _, f := range append([]*Fact(nil), r.facts...) {
		if _, ok := unify(pattern, f, newBindings()); ok {
			r.retract(f.id)
			n++
		}
	}
	return n
}

// refActivation is one (rule, match) pair eligible to fire.
type refActivation struct {
	rule    *Rule
	order   int
	binds   *bindings
	addrs   map[string]*Fact // ?f <- (pattern)
	facts   []*Fact
	recency int
}

func (a *refActivation) key() string {
	ids := make([]string, len(a.facts))
	for i, f := range a.facts {
		ids[i] = strconv.Itoa(f.id)
	}
	return a.rule.Name + "#" + strings.Join(ids, ",")
}

func (r *refEngine) matchRule(rule *Rule, order int) []*refActivation {
	var acts []*refActivation
	var rec func(i int, b *bindings, addrs map[string]*Fact, facts []*Fact)
	rec = func(i int, b *bindings, addrs map[string]*Fact, facts []*Fact) {
		if i == len(rule.ces) {
			a := &refActivation{rule: rule, order: order, binds: b, addrs: addrs, facts: facts}
			for _, f := range facts {
				a.recency = max(a.recency, f.id)
			}
			acts = append(acts, a)
			return
		}
		switch ce := rule.ces[i]; ce.kind {
		case cePattern:
			for _, f := range r.facts {
				nb, ok := unify(ce.pattern, f, b)
				if !ok {
					continue
				}
				na := addrs
				if ce.bindVar != "" {
					na = map[string]*Fact{ce.bindVar: f}
					for k, v := range addrs {
						if k != ce.bindVar {
							na[k] = v
						}
					}
				}
				rec(i+1, nb, na, append(facts[:len(facts):len(facts)], f))
			}
		case ceNegated:
			for _, f := range r.facts {
				if _, ok := unify(ce.pattern, f, b); ok {
					return
				}
			}
			rec(i+1, b, addrs, facts)
		case ceTest:
			if v, err := eval(ce.test, b); err == nil && truthy(v) {
				rec(i+1, b, addrs, facts)
			}
		}
	}
	rec(0, newBindings(), nil, nil)
	return acts
}

func (r *refEngine) agenda() []*refActivation {
	var acts []*refActivation
	for i, rule := range r.rs {
		for _, a := range r.matchRule(rule, i) {
			if !r.fired[a.key()] {
				acts = append(acts, a)
			}
		}
	}
	sort.SliceStable(acts, func(i, j int) bool {
		if acts[i].rule.Salience != acts[j].rule.Salience {
			return acts[i].rule.Salience > acts[j].rule.Salience
		}
		if acts[i].recency != acts[j].recency {
			return acts[i].recency > acts[j].recency
		}
		return acts[i].order < acts[j].order
	})
	return acts
}

func (r *refEngine) run(limit int) (int, error) {
	fired := 0
	for limit <= 0 || fired < limit {
		agenda := r.agenda()
		if len(agenda) == 0 {
			break
		}
		a := agenda[0]
		r.fired[a.key()] = true
		fired++
		f := Firing{Seq: len(r.trace) + 1, Rule: a.rule.Name, Salience: a.rule.Salience, Bindings: map[string]string{}}
		for i, name := range a.binds.names {
			f.Bindings[name] = a.binds.vals[i].String()
		}
		for _, fact := range a.facts {
			f.Matched = append(f.Matched, fact.String())
		}
		err := r.execute(a, &f)
		r.trace = append(r.trace, f)
		if err != nil {
			return fired, fmt.Errorf("rules: rule %s: %w", a.rule.Name, err)
		}
	}
	return fired, nil
}

func (r *refEngine) execute(a *refActivation, rec *Firing) error {
	evalAll := func(forms []sexpr) ([]Value, error) {
		var out []Value
		for _, form := range forms {
			v, err := eval(form, a.binds)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	for _, act := range a.rule.actions {
		switch act.head() {
		case "assert":
			form := act.list[1]
			var tuple []Value
			var err error
			if t, ok := r.templates[form.head()]; ok && isSlotForm(form) {
				tuple = make([]Value, len(t.slots)+1)
				tuple[0] = Sym(t.name)
				for i, s := range t.slots {
					tuple[i+1] = s.def
				}
				for _, c := range form.list[1:] {
					if tuple[t.slotIndex(c.list[0].atom.Sym)+1], err = eval(c.list[1], a.binds); err != nil {
						return err
					}
				}
			} else if tuple, err = evalAll(form.list); err != nil {
				return err
			}
			r.assert(tuple...)
			rec.Asserted = append(rec.Asserted, (&Fact{items: tuple}).String())
		case "retract":
			for _, item := range act.list[1:] {
				f, ok := a.addrs[item.atom.Sym]
				if !ok {
					return fmt.Errorf("retract: %s is not a fact address", item.atom.Sym)
				}
				rec.Retracted = append(rec.Retracted, f.String())
				r.retract(f.id)
			}
		case "call":
			name := act.list[1].atom.Sym
			args, err := evalAll(act.list[2:])
			if err != nil {
				return err
			}
			parts := []string{name}
			for _, v := range args {
				parts = append(parts, v.String())
			}
			rec.Called = append(rec.Called, strings.Join(parts, " "))
			if err := r.funcs[name](args); err != nil {
				return fmt.Errorf("call %s: %w", name, err)
			}
		}
	}
	return nil
}

// genRules writes a random rule set over a small vocabulary so that
// rules feed one another: two- and three-place relations r0..r3 whose
// second place is a small number, joins through shared variables,
// negation (sometimes introducing a variable that must stay local to it),
// numeric tests, fact-address retracts, templated asserts and salience
// ties.
func genRules(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("(deftemplate tally (slot who) (slot n (default 0)))\n(deffacts init (r0 a 1) (limit 4))\n")
	syms := []string{"a", "b", "c"}
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		fmt.Fprintf(&sb, "(defrule rule%d (declare (salience %d))\n", i, []int{0, 0, 5, 10}[rng.Intn(4)])
		retracts := rng.Intn(4) == 0
		if retracts {
			sb.WriteString("  ?f <- ")
		}
		fmt.Fprintf(&sb, "  (r%d ?x ?n)\n", rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "  (r%d ?y ?n)\n", rng.Intn(4))
		case 1:
			fmt.Fprintf(&sb, "  (r%d ?x ?m %s)\n  (test (<= ?m ?n))\n", rng.Intn(4), syms[rng.Intn(3)])
		case 2:
			fmt.Fprintf(&sb, "  (r%d %s ?)\n", rng.Intn(4), syms[rng.Intn(3)])
		}
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "  (not (r%d ?x ?))\n", rng.Intn(4))
		case 1: // ?q is bound only inside the negation; the next pattern binds it afresh
			fmt.Fprintf(&sb, "  (not (r%d ?q ?n))\n  (r%d ?q ?)\n", rng.Intn(4), rng.Intn(4))
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "  (limit ?l)\n  (test (%s ?n ?l))\n", []string{"<", "<=", ">", "!="}[rng.Intn(4)])
		}
		sb.WriteString("  =>\n")
		if retracts {
			sb.WriteString("  (retract ?f)\n")
		}
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "  (assert (r%d ?x (min 6 (+ ?n 1))))\n", rng.Intn(4))
		case 1:
			fmt.Fprintf(&sb, "  (assert (r%d %s ?n ?x))\n", rng.Intn(4), syms[rng.Intn(3)])
		case 2:
			sb.WriteString("  (assert (tally (who ?x) (n (* 2 ?n))))\n")
		}
		sb.WriteString("  (call note ?x ?n))\n")
	}
	return sb.String()
}

// equivOp is one step of a generated workload.
type equivOp struct {
	kind  int     // 0 assert items, 1 retract-matching items, 2 retract the pick'th live fact, 3 run(limit)
	items []Value // fact or pattern
	pick  int
	limit int
}

// checkEquivalent drives n engines, all loaded with one compiled program,
// and the reference through the same rule set and ops in lockstep, and
// requires each engine's observable behaviour to equal the reference's at
// every step: assert ids, retract counts, firing counts and errors, the
// full firing sequence (rule, bindings, matched facts, effects) and final
// working memory with ids. Fact ids are assigned identically and working
// memory holds no duplicate tuples, so equal matched-fact renderings are
// equal matched fact ids. Before op reload (if in range) every engine
// re-Loads the program and the reference reloads its rules.
func checkEquivalent(t *testing.T, src string, ops []equivOp, n, reload int) {
	t.Helper()
	prog, err := Compile("", src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	ref := newRefEngine(t, src)
	note := func([]Value) error { return nil }
	ref.funcs["note"] = note
	es, firings := make([]*Engine, n), make([][]Firing, n)
	for i := range es {
		es[i] = NewEngine()
		es[i].Load(prog)
		es[i].RegisterFunc("note", note)
		es[i].OnFiring = func(f Firing) { firings[i] = append(firings[i], f) }
	}
	for step, op := range ops {
		fail := func(i int, format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d, engine %d of %d (reload before step %d): %s\nrules:\n%s", step, i, n, reload, fmt.Sprintf(format, args...), src)
		}
		if step == reload {
			ref.reload()
			for _, e := range es {
				e.Load(prog)
			}
		}
		switch op.kind {
		case 0:
			want := ref.assert(op.items...)
			for i, e := range es {
				if got := e.Assert(op.items...); got != want {
					fail(i, "assert %v: id %d, reference %d", op.items, got, want)
				}
			}
		case 1:
			want := ref.retractMatching(op.items...)
			for i, e := range es {
				if got := e.RetractMatching(op.items...); got != want {
					fail(i, "retract %v: %d, reference %d", op.items, got, want)
				}
			}
		case 2:
			if k := len(ref.facts); k > 0 {
				id := ref.facts[op.pick%k].id
				ref.retract(id)
				for i, e := range es {
					if !e.Retract(id) {
						fail(i, "retract id %d: not live", id)
					}
				}
			}
		case 3:
			want, werr := ref.run(op.limit)
			for i, e := range es {
				if got, gerr := e.Run(op.limit); got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					fail(i, "run(%d): fired %d err %v, reference %d err %v", op.limit, got, gerr, want, werr)
				}
			}
		}
		for i, e := range es {
			checkSpareFacts(t, e)
			if len(firings[i]) != len(ref.trace) {
				fail(i, "%d firings, reference %d", len(firings[i]), len(ref.trace))
			}
			for j, f := range firings[i] {
				if !reflect.DeepEqual(f, ref.trace[j]) {
					fail(i, "firing %d diverged:\ncompiled:  %+v\nreference: %+v", j, f, ref.trace[j])
				}
			}
		}
	}
	var want []string
	for _, f := range ref.facts {
		want = append(want, fmt.Sprintf("%d:%s", f.ID(), f))
	}
	for i, e := range es {
		if got := factStrings(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("engine %d: final working memory diverged:\ncompiled:  %v\nreference: %v\nrules:\n%s", i, got, want, src)
		}
	}
}

// TestCompiledEngineEquivalence: random rule sets × random assert /
// retract / Run sequences, compiled engine against the reference; then
// the same workload on two engines sharing one program, and on one
// engine that re-loads its program midway.
func TestCompiledEngineEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genRules(rng)
		var ops []equivOp
		syms := []string{"a", "b", "c"}
		for i := 0; i < 60; i++ {
			rel, sym := "r"+strconv.Itoa(rng.Intn(4)), syms[rng.Intn(3)]
			switch rng.Intn(8) {
			case 0, 1, 2:
				items := F(rel, sym, rng.Intn(6))
				if rng.Intn(3) == 0 {
					items = append(items, Sym(syms[rng.Intn(3)]))
				}
				ops = append(ops, equivOp{kind: 0, items: items})
			case 3:
				ops = append(ops, equivOp{kind: 1, items: F(rel, sym, "?")})
			case 4:
				ops = append(ops, equivOp{kind: 2, pick: rng.Intn(1 << 20)})
			default: // bounded: random rule sets may chain without end
				ops = append(ops, equivOp{kind: 3, limit: []int{1, 3, 40}[rng.Intn(3)]})
			}
		}
		reload := rng.Intn(len(ops))
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkEquivalent(t, src, ops, 1, -1)
			checkEquivalent(t, src, ops, 2, -1)
			checkEquivalent(t, src, ops, 1, reload)
		})
	}
}

// equivRules exercises every condition-element kind the matcher supports:
// plain patterns, joins through shared variables, negation, tests, and a
// fact-address retract.
const equivRules = `
(defrule diagnose
  (violation ?p ?policy)
  (reading ?p load ?v)
  (test (>= ?v 5))
  (not (diagnosis ?p ?))
  =>
  (assert (diagnosis ?p overload)))
(defrule clear
  (salience 10)
  ?d <- (diagnosis ?p ?)
  (cleared ?p)
  =>
  (retract ?d))
(defrule chain
  (diagnosis ?p overload)
  (owner ?p ?h)
  =>
  (assert (notify ?h ?p)))
`

// genWorkload produces a deterministic random op sequence from seed. The
// fact population is drawn from small domains so asserts collide with
// existing facts, retracts hit live facts, and rules actually fire.
func genWorkload(seed int64, n int) []equivOp {
	rng := rand.New(rand.NewSource(seed))
	procs := []string{"p1", "p2", "p3", "p4"}
	hosts := []string{"hA", "hB"}
	var ops []equivOp
	for i := 0; i < n; i++ {
		p := procs[rng.Intn(len(procs))]
		switch rng.Intn(10) {
		case 0, 1:
			ops = append(ops, equivOp{kind: 0, items: F("violation", p, "P")})
		case 2, 3:
			ops = append(ops, equivOp{kind: 0, items: F("reading", p, "load", rng.Intn(10))})
		case 4:
			ops = append(ops, equivOp{kind: 0, items: F("owner", p, hosts[rng.Intn(len(hosts))])})
		case 5:
			if rng.Intn(4) == 0 {
				ops = append(ops, equivOp{kind: 0, items: F("salience", 10)})
			}
			ops = append(ops, equivOp{kind: 0, items: F("cleared", p)})
		case 6:
			ops = append(ops, equivOp{kind: 1, items: F("violation", p, "?")})
		case 7:
			ops = append(ops, equivOp{kind: 1, items: F("reading", "?", "?", "?")})
		case 8:
			ops = append(ops, equivOp{kind: 1, items: F("cleared", "?")})
		default:
			ops = append(ops, equivOp{kind: 3})
		}
	}
	return append(ops, equivOp{kind: 3}) // always finish with a run
}

// TestIndexedMatcherEquivalence drives the engine and the reference
// through the hand-written diagnosis rule set and a long seeded workload.
func TestIndexedMatcherEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkEquivalent(t, equivRules, genWorkload(seed, 120), 1, -1)
		})
	}
}

// factStrings renders live working memory in assertion order.
func factStrings(e *Engine) []string {
	var out []string
	for _, f := range e.Facts() {
		out = append(out, fmt.Sprintf("%d:%s", f.ID(), f))
	}
	return out
}
