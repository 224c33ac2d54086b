package rules

import (
	"strings"
	"testing"
)

const readingTemplate = `
(deftemplate reading
  (slot proc)
  (slot attr)
  (slot value (default 0)))
`

func TestTemplatedFactsAndPatterns(t *testing.T) {
	e := mustLoad(t, readingTemplate+`
(defrule low-rate
  (reading (proc ?p) (attr frame_rate) (value ?v))
  (test (< ?v 23))
  =>
  (assert (starved ?p)))
`)
	if _, err := e.AssertTemplate("reading", map[string]Value{
		"proc": Sym("p1"), "attr": Sym("frame_rate"), "value": Num(14),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AssertTemplate("reading", map[string]Value{
		"proc": Sym("p2"), "attr": Sym("frame_rate"), "value": Num(29),
	}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if len(e.FactsMatching(Sym("starved"), Sym("p1"))) != 1 {
		t.Error("templated pattern did not match the starved process")
	}
	if len(e.FactsMatching(Sym("starved"), Sym("p2"))) != 0 {
		t.Error("healthy process marked starved")
	}
}

func TestTemplateSlotOrderIndependent(t *testing.T) {
	e := mustLoad(t, readingTemplate+`
(deffacts seed
  (reading (value 7) (attr fps) (proc p9)))
(defrule echo
  (reading (proc ?p) (value ?v) (attr ?a))
  =>
  (assert (seen ?p ?a ?v)))
`)
	mustRun(t, e)
	fs := e.FactsMatching(Sym("seen"), Sym("?"), Sym("?"), Sym("?"))
	if len(fs) != 1 {
		t.Fatalf("seen facts = %v", fs)
	}
	f := fs[0]
	if f.At(1).Sym != "p9" || f.At(2).Sym != "fps" || f.At(3).Num != 7 {
		t.Errorf("slot values misrouted: %v", f)
	}
}

func TestTemplateDefaultsAndOmissions(t *testing.T) {
	e := mustLoad(t, readingTemplate)
	id, err := e.AssertTemplate("reading", map[string]Value{
		"proc": Sym("p1"), "attr": Sym("fps"),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := e.Facts()[0]
	if f.ID() != id || f.At(3).Num != 0 {
		t.Errorf("default slot value = %v", f)
	}
	// Omitting a slot without a default fails.
	if _, err := e.AssertTemplate("reading", map[string]Value{"proc": Sym("p2")}); err == nil {
		t.Error("missing non-default slot accepted")
	}
	// Unknown slot fails.
	if _, err := e.AssertTemplate("reading", map[string]Value{
		"proc": Sym("p"), "attr": Sym("a"), "color": Sym("red")}); err == nil {
		t.Error("unknown slot accepted")
	}
	// Unknown template fails.
	if _, err := e.AssertTemplate("ghost", nil); err == nil {
		t.Error("unknown template accepted")
	}
}

func TestTemplatedAssertWithComputedSlots(t *testing.T) {
	e := mustLoad(t, readingTemplate+`
(defrule derive
  (reading (proc ?p) (attr fps) (value ?v))
  (test (> ?v 0))
  =>
  (assert (reading (proc ?p) (attr doubled) (value (* 2 ?v)))))
`)
	_, err := e.AssertTemplate("reading", map[string]Value{
		"proc": Sym("p1"), "attr": Sym("fps"), "value": Num(21)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	fs := e.FactsMatching(Sym("reading"), Sym("p1"), Sym("doubled"), Sym("?v"))
	if len(fs) != 1 || fs[0].At(3).Num != 42 {
		t.Errorf("computed templated assert = %v", fs)
	}
}

// TestSlotValue: a rule reads a templated fact's slot by name, whatever
// the slot's position, and a pattern naming a slot the template lacks
// does not compile.
func TestSlotValue(t *testing.T) {
	e := mustLoad(t, readingTemplate+`
(defrule read-value
  (reading (value ?v) (proc ?p))
  =>
  (assert (value-of ?p ?v)))
`)
	_, _ = e.AssertTemplate("reading", map[string]Value{
		"proc": Sym("p1"), "attr": Sym("fps"), "value": Num(5)})
	mustRun(t, e)
	if fs := e.FactsMatching(Sym("value-of"), Sym("p1"), Sym("?v")); len(fs) != 1 || fs[0].At(2).Num != 5 {
		t.Errorf("value slot read as %v", fs)
	}
	if _, err := Compile("t", readingTemplate+`
(defrule ghost (reading (ghost ?g)) => (assert (g ?g)))`); err == nil {
		t.Error("pattern on an unknown slot compiled")
	}
}

func TestTemplateParseErrors(t *testing.T) {
	bad := map[string]string{
		"no name":        `(deftemplate)`,
		"no slots":       `(deftemplate t)`,
		"dup slot":       `(deftemplate t (slot a) (slot a))`,
		"bad option":     `(deftemplate t (slot a (range 1 2)))`,
		"dup template":   `(deftemplate t (slot a)) (deftemplate t (slot b))`,
		"unknown slot":   `(deftemplate t (slot a)) (deffacts d (t (b 1)))`,
		"slot twice":     `(deftemplate t (slot a)) (deffacts d (t (a 1) (a 2)))`,
		"var in fact":    `(deftemplate t (slot a)) (deffacts d (t (a ?x)))`,
		"omit no defflt": `(deftemplate t (slot a) (slot b)) (deffacts d (t (a 1)))`,
	}
	for name, src := range bad {
		if _, _, err := ParseRules(src); err == nil {
			t.Errorf("%s: parsed successfully", name)
		}
	}
}

func TestTemplatedNegation(t *testing.T) {
	e := mustLoad(t, readingTemplate+`
(defrule no-reading
  (proc ?p)
  (not (reading (proc ?p)))
  =>
  (assert (silent ?p)))
`)
	e.AssertF("proc", "p1")
	e.AssertF("proc", "p2")
	_, _ = e.AssertTemplate("reading", map[string]Value{
		"proc": Sym("p1"), "attr": Sym("fps"), "value": Num(1)})
	mustRun(t, e)
	if len(e.FactsMatching(Sym("silent"), Sym("p1"))) != 0 {
		t.Error("negation matched despite a reading for p1")
	}
	if len(e.FactsMatching(Sym("silent"), Sym("p2"))) != 1 {
		t.Error("negation failed for p2")
	}
}

func TestOrderedFactsUnaffectedByTemplates(t *testing.T) {
	// A relation that shares a template's name but uses ordered syntax
	// still works as ordered (slot-form detection requires pair lists).
	e := mustLoad(t, readingTemplate+`
(defrule ordered (tick ?n) => (assert (tock ?n)))
`)
	e.AssertF("tick", 1)
	mustRun(t, e)
	if len(e.FactsMatching(Sym("tock"), Num(1))) != 1 {
		t.Error("ordered facts broken by template support")
	}
}

func TestHostRulesWorkWithTemplateHeader(t *testing.T) {
	// Manager-style rules continue to parse alongside template forms.
	src := readingTemplate + `
(defrule x (violation ?p ?policy) => (log "v" ?p))
`
	e := NewEngine()
	if err := e.LoadRules(src); err != nil {
		t.Fatal(err)
	}
	var logged string
	e.Logf = func(f string, a ...any) { logged = strings.TrimSpace(sprintf(f, a...)) }
	e.AssertF("violation", "p1", "P")
	mustRun(t, e)
	if logged != "v p1" {
		t.Errorf("logged = %q", logged)
	}
}
