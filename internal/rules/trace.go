package rules

import (
	"fmt"
	"sort"
	"strings"
)

// Firing records address the rule-debugging pain the paper reports in
// Section 9 ("These rules heavily interact with each other. This makes it
// difficult to debug a set of rules."): with Engine.OnFiring set, the
// engine reports every firing with its bindings, matched facts and
// effects.

// Firing is one recorded rule activation: the match that activated it
// and — captured while its RHS executed — its effects on working memory
// and the outside world.
type Firing struct {
	Seq      int // the engine's firings so far, this one included
	Rule     string
	Origin   string // rule-set provenance (see Compile)
	Salience int
	Bindings map[string]string // variable -> value (rendered)
	Matched  []string          // matched facts (rendered)

	// Effects of the RHS, in execution order.
	Asserted  []string // facts asserted (rendered)
	Retracted []string // facts retracted (rendered)
	Called    []string // Go callbacks invoked, "name arg ..." (rendered)
}

func (f Firing) String() string {
	vars := make([]string, 0, len(f.Bindings))
	for k := range f.Bindings {
		vars = append(vars, k)
	}
	sort.Strings(vars)
	parts := make([]string, 0, len(vars))
	for _, k := range vars {
		parts = append(parts, k+"="+f.Bindings[k])
	}
	return fmt.Sprintf("#%d %s {%s} <= %s",
		f.Seq, f.Rule, strings.Join(parts, " "), strings.Join(f.Matched, " "))
}

// capture collects, in one buffer, the text a Firing record is cut
// from: effects as the RHS executes, then bindings and matched facts.
type capture struct {
	buf   []byte
	marks []mark // the pieces of buf, in rendering order
}

// mark ends one piece of capture.buf (it starts where the last ended).
type mark struct {
	kind byte
	end  int
}

const (
	effAsserted byte = iota
	effRetracted
	effCalled
	capBinding
	capMatched
)

func (c *capture) reset()         { c.buf, c.marks = c.buf[:0], c.marks[:0] }
func (c *capture) mark(kind byte) { c.marks = append(c.marks, mark{kind, len(c.buf)}) }

// firing renders the activation that just executed (bindings in e.frame,
// effects in e.cap) into a Firing record: one string, cut into its pieces.
func (e *Engine) firing(p *prod, tuple []*Fact) Firing {
	c := &e.cap
	for _, v := range e.frame[:len(p.vars)] {
		c.buf = appendValue(c.buf, v)
		c.mark(capBinding)
	}
	for _, f := range tuple {
		c.buf = appendTuple(c.buf, f.items)
		c.mark(capMatched)
	}
	text, pieces, n := string(c.buf), make([]string, len(c.marks)), 0
	cut := func(kind byte) []string { // the pieces of one kind, in order
		from, start := n, 0
		for _, m := range c.marks {
			if m.kind == kind {
				pieces[n] = text[start:m.end]
				n++
			}
			start = m.end
		}
		if from == n {
			return nil
		}
		return pieces[from:n:n]
	}
	f := Firing{Seq: e.fired, Rule: p.Name, Origin: p.origin, Salience: p.Salience,
		Bindings: make(map[string]string, len(p.vars))}
	for i, s := range cut(capBinding) {
		f.Bindings[p.vars[i]] = s
	}
	f.Matched, f.Asserted = cut(capMatched), cut(effAsserted)
	f.Retracted, f.Called = cut(effRetracted), cut(effCalled)
	return f
}
