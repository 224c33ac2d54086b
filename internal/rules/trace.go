package rules

import (
	"fmt"
	"sort"
	"strings"
)

// Tracing addresses the rule-debugging pain the paper reports in Section
// 9 ("These rules heavily interact with each other. This makes it
// difficult to debug a set of rules."): when enabled, the engine records
// every firing with its bindings and matched facts, and can explain why a
// rule did or did not activate against the current working memory.

// Firing is one recorded rule activation: the match that activated it
// and — captured while its RHS executed — its effects on working memory
// and the outside world.
type Firing struct {
	Seq      int
	Rule     string
	Origin   string // rule-set provenance (see Engine.LoadRulesOrigin)
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

// SetTracing enables or disables firing capture. Disabling clears the
// recorded trace.
func (e *Engine) SetTracing(on bool) {
	e.tracing = on
	if !on {
		e.trace = nil
	}
}

// Trace returns the recorded firings, oldest first.
func (e *Engine) Trace() []Firing { return append([]Firing(nil), e.trace...) }

// ClearTrace drops recorded firings while keeping tracing enabled.
func (e *Engine) ClearTrace() { e.trace = nil }

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
	f := Firing{Seq: len(e.trace) + 1, Rule: p.Name, Origin: e.origins[p.Name], Salience: p.Salience,
		Bindings: make(map[string]string, len(p.vars))}
	for i, s := range cut(capBinding) {
		f.Bindings[p.vars[i]] = s
	}
	f.Matched, f.Asserted = cut(capMatched), cut(effAsserted)
	f.Retracted, f.Called = cut(effRetracted), cut(effCalled)
	return f
}

// Explain reports, for the named rule, how far matching gets against the
// current working memory: which condition element first fails and why.
// It is a diagnostic aid, not part of inference.
func (e *Engine) Explain(ruleName string) string {
	var r *Rule
	for _, cand := range e.rs {
		if cand.Name == ruleName {
			r = cand.Rule
			break
		}
	}
	if r == nil {
		return fmt.Sprintf("rule %q is not loaded", ruleName)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "rule %s (salience %d):\n", r.Name, r.Salience)

	// Walk condition elements greedily, reporting the surviving binding
	// count after each.
	type state struct{ b *bindings }
	cur := []state{{newBindings()}}
	for i, ce := range r.ces {
		var next []state
		desc := ""
		switch ce.kind {
		case cePattern:
			desc = string(appendTuple(nil, ce.pattern))
			for _, st := range cur {
				for _, f := range e.candidates(ce.pattern) {
					if nb, ok := unify(ce.pattern, f, st.b); ok && !f.gone {
						next = append(next, state{nb})
					}
				}
			}
		case ceNegated:
			desc = "(not " + string(appendTuple(nil, ce.pattern)) + ")"
			for _, st := range cur {
				if len(e.appendMatching(nil, substitute(ce.pattern, st.b))) == 0 {
					next = append(next, st)
				}
			}
		case ceTest:
			desc = "(test " + ce.test.String() + ")"
			for _, st := range cur {
				v, err := eval(ce.test, st.b)
				if err == nil && truthy(v) {
					next = append(next, st)
				}
			}
		}
		fmt.Fprintf(&sb, "  CE%d %-40s -> %d candidate binding(s)\n", i+1, desc, len(next))
		if len(next) == 0 {
			fmt.Fprintf(&sb, "  blocked at CE%d: no facts satisfy it under the surviving bindings\n", i+1)
			return sb.String()
		}
		cur = next
	}
	fmt.Fprintf(&sb, "  activatable: %d complete match(es)\n", len(cur))
	return sb.String()
}
