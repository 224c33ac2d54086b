package rules

import "testing"

// FuzzParseRules ensures the rule-DSL parser never panics, and that rule
// text which parses also compiles and runs one episode — facts asserted,
// forward-chained with every callback present and every firing recorded,
// retracted — without panicking (errors are fine: a malformed action
// fails at run time by design).
func FuzzParseRules(f *testing.F) {
	f.Add(`(defrule r (a ?x) (test (> ?x 1)) => (assert (b ?x)))`)
	f.Add(`(deftemplate t (slot a (default 1))) (deffacts d (t (a 2)))`)
	f.Add(`(defrule r "doc" (declare (salience 5)) ?f <- (a) (not (b)) => (retract ?f))`)
	f.Add(`((((`)
	f.Add(`; comment only`)
	f.Add(`(deftemplate t (slot a) (slot b (default 2))) (defrule r (a ?x ?x) (not (b ?y ?x)) (?h ?y) (test (< ?x ?z)) => (assert (t (a (/ 1 ?x)))) (call f ?y) (retract ?q) (log "x" ?x))`)
	f.Fuzz(func(t *testing.T, src string) {
		if _, _, err := ParseRules(src); err != nil {
			return
		}
		e := NewEngine()
		if err := e.LoadRules(src); err != nil {
			t.Fatalf("parsed but did not load: %v", err)
		}
		var firings []Firing
		e.OnFiring = func(f Firing) { firings = append(firings, f) }
		for _, fn := range []string{"f", "g", "boost-cpu", "note"} {
			e.RegisterFunc(fn, func([]Value) error { return nil })
		}
		ids := []int{e.AssertF("a", 1, 1), e.AssertF("a", 1, 2), e.AssertF("b", 2, 1), e.AssertF("a"), e.AssertF("x", "y")}
		_, _ = e.Run(20)
		for _, id := range ids {
			e.Retract(id)
		}
		_, _ = e.Run(20)
		for i, f := range firings {
			if f.Seq != i+1 {
				t.Fatalf("firing %d has Seq %d", i+1, f.Seq)
			}
		}
	})
}

// FuzzSexprRoundTrip: anything the reader accepts renders back to a form
// the reader accepts again.
func FuzzSexprRoundTrip(f *testing.F) {
	f.Add(`(a (b "c \n d") -1.5 ?x)`)
	f.Fuzz(func(t *testing.T, src string) {
		forms, err := readAll(src)
		if err != nil {
			return
		}
		for _, form := range forms {
			if _, err := readAll(form.String()); err != nil {
				t.Fatalf("rendered form does not re-read: %v\n%s", err, form.String())
			}
		}
	})
}
