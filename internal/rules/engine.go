package rules

import (
	"fmt"
	"hash/maphash"
	"math"
)

// Callback is a Go function the rule RHS can invoke with (call name
// args...). args is only valid during the call: the engine reuses it.
type Callback func(args []Value) error

// Engine is the fact repository plus inference machinery of one manager:
// working memory and the match state of the Program it has loaded.
type Engine struct {
	facts  map[int]*Fact    // live facts by id
	byHash map[uint64]*Fact // live facts by tuple hash, colliding ones chained through Fact.next
	seed   maphash.Seed
	nextID int

	// all holds every live fact in assertion order; mems indexes them by
	// (relation, arity) — the alpha memories of a Rete network, which keep
	// matching linear in the relevant facts. pm resolves the program's key
	// table: a compiled pattern with a constant head scans the memory of
	// its key; any other scans all (pm[0]).
	all  memory
	mems map[relKey]*memory
	pm   []*memory

	// Retracted facts on their way back to Assert: unlisted holds the ones
	// no memory lists any more, which a conflict set may still name until
	// the next re-match (agenda.go) moves them to free.
	unlisted, free []*Fact

	prog  *Program
	state []ruleState // one per program rule
	funcs map[string]Callback

	// Match state, reused across episodes (agenda.go): stale — some rule
	// needs re-matching; frame and stack — variable slots and matched
	// facts of the match in progress; fresh — the conflict set a re-match
	// builds; old/cur — the one it replaces; spare — the buffers the next
	// re-match fills.
	stale             bool
	frame, args       []Value
	stack             []*Fact
	fresh, old, spare conflictSet
	cur               int
	fired             int  // firings so far: the next Firing's Seq less one
	capturing         bool // a Firing record is wanted: execute notes effects in cap
	cap               capture

	// Logf, if non-nil, receives (log ...) output and trace messages.
	Logf func(format string, args ...any)

	// OnFiring, if non-nil, receives every executed activation as a
	// Firing record including its effects (facts asserted/retracted,
	// callbacks invoked), after the activation's RHS ran. Managers use it
	// to attach rule-firing explanations to the violation trace being
	// diagnosed.
	OnFiring func(Firing)
}

// noRules is the program of an engine that has loaded none.
var noRules = new(Program)

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		facts:  make(map[int]*Fact),
		byHash: make(map[uint64]*Fact),
		seed:   maphash.MakeSeed(),
		mems:   make(map[relKey]*memory),
		funcs:  make(map[string]Callback),
		prog:   noRules,
	}
}

// Load replaces the engine's rule set with p (the paper's dynamic rule
// distribution: rule sets change at run time without recompilation).
// Working memory survives; every rule is matched afresh, so no earlier
// firing refracts a new activation; p's initial facts are asserted.
func (e *Engine) Load(p *Program) {
	e.prog = p
	for _, m := range e.mems {
		m.deps = nil
	}
	e.all.deps = p.deps[0]
	e.pm = append(e.pm[:0], &e.all)
	for k, key := range p.keys[1:] {
		m := e.mem(key.rel, key.arity)
		m.deps = p.deps[k+1]
		e.pm = append(e.pm, m)
	}
	e.state = make([]ruleState, len(p.rules))
	for i := range e.state {
		e.state[i].dirty = true
	}
	e.stale = true
	if p.frame > len(e.frame) {
		e.frame = make([]Value, p.frame)
	}
	if p.stack > len(e.stack) {
		e.stack = make([]*Fact, p.stack)
	}
	for _, f := range p.facts {
		e.Assert(f...)
	}
}

// LoadRules compiles src and loads it (see Compile and Load).
func (e *Engine) LoadRules(src string) error { return e.LoadRulesOrigin("", src) }

// LoadRulesOrigin compiles src with provenance origin and loads it.
func (e *Engine) LoadRulesOrigin(origin, src string) error {
	p, err := Compile(origin, src)
	if err != nil {
		return err
	}
	e.Load(p)
	return nil
}

// Rules returns the loaded rule names in definition order.
func (e *Engine) Rules() []string {
	out := make([]string, len(e.prog.rules))
	for i, p := range e.prog.rules {
		out[i] = p.Name
	}
	return out
}

// RegisterFunc makes a Go callback available to (call name ...) actions.
func (e *Engine) RegisterFunc(name string, fn Callback) { e.funcs[name] = fn }

// relKey identifies an alpha memory.
type relKey struct {
	rel   string
	arity int
}

// memory is facts in assertion order — one alpha memory, or all of
// working memory. Retraction tombstones (Fact.gone) so a retract never
// searches; iteration skips dead facts. Dead facts at the tail are
// dropped at once — an episode's facts, asserted last, leave no
// tombstone behind however large the memory — and the slice is
// compacted, in place, once half of it is dead. Nothing retracts while
// iterating.
type memory struct {
	facts []*Fact
	dead  int
	deps  []int // the loaded program's rules with a pattern over this memory
}

// maxSpareFacts bounds each of the engine's two lists of retracted facts
// awaiting reuse; a fact retracted beyond it is left to the collector.
const maxSpareFacts = 64

// changed marks every rule matching over m for re-matching.
func (e *Engine) changed(m *memory) {
	for _, r := range m.deps {
		e.state[r].dirty = true
		e.stale = true
	}
}

// removed accounts for one fact of m just retracted, and drops the dead
// facts it can drop cheaply.
func (e *Engine) removed(m *memory) {
	m.dead++
	n := len(m.facts)
	for n > 0 && m.facts[n-1].gone {
		n--
		e.unlist(m.facts[n])
		m.facts[n] = nil
		m.dead--
	}
	m.facts = m.facts[:n]
	if m.dead*2 <= n {
		return
	}
	live := m.facts[:0]
	for _, f := range m.facts {
		if f.gone {
			e.unlist(f)
		} else {
			live = append(live, f)
		}
	}
	clear(m.facts[len(live):])
	m.facts, m.dead = live, 0
}

// unlist notes that one memory stopped listing retracted fact f. Once
// none does, the engine's only remaining references to f are activation
// tuples of rules over those memories, all of them marked for
// re-matching by the retract: f waits in unlisted for that re-match.
func (e *Engine) unlist(f *Fact) {
	if f.listed--; f.listed == 0 && !f.shared && len(e.unlisted) < maxSpareFacts {
		e.unlisted = append(e.unlisted, f)
	}
}

// reclaim runs when every rule is freshly matched: no conflict set names
// a retracted fact any more, so the unlisted ones are blanked for reuse.
func (e *Engine) reclaim() {
	for _, f := range e.unlisted {
		if len(e.free) < maxSpareFacts {
			*f = Fact{}
			e.free = append(e.free, f)
		}
	}
	clear(e.unlisted)
	e.unlisted = e.unlisted[:0]
	clear(e.stack) // the matcher's scratch may still name them
}

// mem returns the alpha memory of (rel, arity), creating it when absent.
func (e *Engine) mem(rel string, arity int) *memory {
	k := relKey{rel, arity}
	m := e.mems[k]
	if m == nil {
		m = &memory{}
		e.mems[k] = m
	}
	return m
}

// candidates returns the facts a pattern could possibly match, in
// assertion order, dead ones included: the relation's memory when the
// pattern's head is a constant symbol, all of working memory otherwise.
func (e *Engine) candidates(pattern []Value) []*Fact {
	if len(pattern) == 0 || pattern[0].Kind != SymbolKind || pattern[0].IsVariable() {
		return e.all.facts
	}
	if m := e.mems[relKey{pattern[0].Sym, len(pattern)}]; m != nil {
		return m.facts
	}
	return nil
}

// hashTuple hashes a tuple for duplicate detection.
func (e *Engine) hashTuple(items []Value) uint64 {
	h := uint64(len(items))
	for i := range items {
		var x uint64
		switch v := &items[i]; v.Kind {
		case SymbolKind:
			x = maphash.String(e.seed, v.Sym)
		case NumberKind:
			x = math.Float64bits(v.Num)
		default:
			x = ^maphash.String(e.seed, v.Str)
		}
		h = (h ^ x) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// Assert adds a fact tuple to working memory, returning its id. Asserting
// a duplicate of a live fact is a no-op returning the existing id.
func (e *Engine) Assert(items ...Value) int {
	h := e.hashTuple(items)
	for f := e.byHash[h]; f != nil; f = f.next {
		if sameTuple(f.items, items) {
			return f.id
		}
	}
	e.nextID++
	var f *Fact
	if n := len(e.free); n > 0 {
		f, e.free[n-1], e.free = e.free[n-1], nil, e.free[:n-1]
	} else {
		f = new(Fact)
	}
	f.id, f.hash, f.next, f.listed = e.nextID, h, e.byHash[h], 2
	if len(items) <= len(f.inline) {
		f.items = f.inline[:len(items)]
	} else {
		f.items = make([]Value, len(items))
	}
	copy(f.items, items)
	e.facts[f.id] = f
	e.byHash[h] = f
	e.all.facts = append(e.all.facts, f)
	m := e.mem(f.Relation(), len(items))
	m.facts = append(m.facts, f)
	e.changed(m)
	e.changed(&e.all)
	return f.id
}

// AssertF is Assert with Go-native items (see F).
func (e *Engine) AssertF(items ...any) int { return e.Assert(F(items...)...) }

// Retract removes a fact by id; it reports whether the fact existed. Memory
// entries are tombstoned, not searched: the cost is independent of memory size.
func (e *Engine) Retract(id int) bool {
	f, ok := e.facts[id]
	if !ok {
		return false
	}
	delete(e.facts, id)
	if head := e.byHash[f.hash]; head == f {
		if f.next == nil {
			delete(e.byHash, f.hash)
		} else {
			e.byHash[f.hash] = f.next
		}
	} else {
		for ; head.next != f; head = head.next {
		}
		head.next = f.next
	}
	f.gone, f.next = true, nil
	m := e.mems[relKey{f.Relation(), len(f.items)}]
	e.removed(m)
	e.removed(&e.all)
	e.changed(m)
	e.changed(&e.all)
	return true
}

// RetractMatching removes every fact unifying with the pattern (variables
// allowed) and returns how many were removed.
func (e *Engine) RetractMatching(pattern ...Value) int {
	var buf [8]*Fact // collected first: a retract may compact the memory being scanned
	hits := e.appendMatching(buf[:0], pattern)
	for _, f := range hits {
		e.Retract(f.id)
	}
	return len(hits)
}

// FactCount returns the number of live facts.
func (e *Engine) FactCount() int { return len(e.facts) }

// Facts returns live facts in assertion order.
func (e *Engine) Facts() []*Fact { return e.FactsMatching() }

// FactsMatching returns live facts unifying with the pattern (every
// live fact for the empty pattern). They stay valid and unchanged after
// their retraction: a fact handed out is never reused.
func (e *Engine) FactsMatching(pattern ...Value) []*Fact {
	out := e.appendMatching(nil, pattern)
	for _, f := range out {
		f.shared = true
	}
	return out
}

// EachMatching calls fn with every live fact unifying with the pattern,
// in assertion order, without allocating. The fact is the engine's own:
// fn must neither keep it nor assert or retract.
func (e *Engine) EachMatching(pattern []Value, fn func(*Fact)) {
	var none bindings
	for _, f := range e.candidates(pattern) {
		if !f.gone && (len(pattern) == 0 || unifies(pattern, f, &none)) {
			fn(f)
		}
	}
}

// appendMatching appends the engine's own live facts unifying with the
// pattern to out.
func (e *Engine) appendMatching(out []*Fact, pattern []Value) []*Fact {
	e.EachMatching(pattern, func(f *Fact) { out = append(out, f) })
	return out
}

// unifies reports whether a pattern tuple matches a fact under b: constants
// and variables b binds must equal the fact's atoms, ? matches anything,
// and a variable b does not bind must see one atom wherever it repeats.
// Match attempts vastly outnumber matches, so this allocates nothing.
func unifies(pattern []Value, f *Fact, b *bindings) bool {
	if len(pattern) != len(f.items) {
		return false
	}
	for i := range pattern {
		want := &pattern[i]
		if name := want.Sym; want.IsVariable() {
			if name == "?" {
				continue
			}
			if j := b.slot(name); j >= 0 {
				want = &b.vals[j]
			} else { // the atom under the variable's first occurrence (at i, at the latest)
				for j = 0; pattern[j].Kind != SymbolKind || pattern[j].Sym != name; j++ {
				}
				want = &f.items[j]
			}
		}
		if !equal(want, &f.items[i]) {
			return false
		}
	}
	return true
}

// Run forward-chains until quiescence or limit firings (limit <= 0 means
// no limit). It returns the number of rules fired.
func (e *Engine) Run(limit int) (int, error) {
	fired := 0
	for limit <= 0 || fired < limit {
		r, i := e.next()
		if r < 0 {
			break
		}
		p, set := e.prog.rules[r], &e.state[r].set
		set.acts[i].fired = true
		fired++
		e.fired++
		tuple := set.tuple(i, p.npos)
		for j := range p.conds { // re-derive the bindings from the matched facts
			if c := &p.conds[j]; c.kind == cePattern {
				c.unify(tuple[c.pos], e.frame)
			}
		}
		e.capturing = e.OnFiring != nil
		e.cap.reset()
		var err error
		for _, act := range p.actions {
			if err = act(e, tuple); err != nil {
				break
			}
		}
		if e.capturing && e.OnFiring != nil {
			e.OnFiring(e.firing(p, tuple))
		}
		if err != nil {
			return fired, fmt.Errorf("rules: rule %s: %w", p.Name, err)
		}
	}
	return fired, nil
}

func (e *Engine) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}
