package rules

import (
	"testing"
	"testing/quick"
)

// evalStr is a test helper evaluating a single expression source.
func evalStr(t *testing.T, src string, b *bindings) (Value, error) {
	t.Helper()
	forms, err := readAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if b == nil {
		b = newBindings()
	}
	return eval(forms[0], b)
}

func TestEvalArithmetic(t *testing.T) {
	cases := map[string]float64{
		"(+ 1 2 3)":       6,
		"(- 10 3 2)":      5,
		"(- 4)":           -4,
		"(* 2 3 4)":       24,
		"(/ 20 2 5)":      2,
		"(min 3 1 2)":     1,
		"(max 3 9 2)":     9,
		"(abs -7)":        7,
		"(+ (* 2 3) 1)":   7,
		"(max (- 1 5) 0)": 0,
	}
	for src, want := range cases {
		v, err := evalStr(t, src, nil)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if v.Kind != NumberKind || v.Num != want {
			t.Errorf("%s = %v, want %v", src, v, want)
		}
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	cases := map[string]bool{
		"(> 3 2 1)":             true,
		"(> 3 3)":               false,
		"(>= 3 3 2)":            true,
		"(< 1 2 3)":             true,
		"(<= 1 1)":              true,
		"(= 2 2 2)":             true,
		"(!= 1 2)":              true,
		"(eq a a)":              true,
		"(eq a b)":              false,
		"(neq a b)":             true,
		"(and (> 2 1) (< 1 2))": true,
		"(and (> 2 1) (< 2 1))": false,
		"(or (> 1 2) (< 1 2))":  true,
		"(or (> 1 2) (> 0 1))":  false,
		"(not (> 1 2))":         true,
	}
	for src, want := range cases {
		v, err := evalStr(t, src, nil)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if truthy(v) != want {
			t.Errorf("%s = %v, want %v", src, v, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	for _, src := range []string{
		"(/ 1 0)",        // division by zero
		"(+ 1 a)",        // non-numeric arithmetic
		"(> 1)",          // too few comparison args
		"(abs 1 2)",      // wrong arity
		"(frobnicate 1)", // unknown builtin
		"(not 1 2)",      // not arity
		"(eq a)",         // eq arity
		"(min)",          // min arity
		"(?)",            // unevaluable head
	} {
		if _, err := evalStr(t, src, nil); err == nil {
			t.Errorf("%s evaluated without error", src)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// and stops at the first false operand: the erroneous second operand
	// is never evaluated.
	v, err := evalStr(t, "(and (> 1 2) (/ 1 0))", nil)
	if err != nil || truthy(v) {
		t.Errorf("and short-circuit: v=%v err=%v", v, err)
	}
	v, err = evalStr(t, "(or (< 1 2) (/ 1 0))", nil)
	if err != nil || !truthy(v) {
		t.Errorf("or short-circuit: v=%v err=%v", v, err)
	}
}

func TestEvalVariables(t *testing.T) {
	b := newBindings()
	b.setVar("?x", Num(4))
	v, err := evalStr(t, "(+ ?x 1)", b)
	if err != nil || v.Num != 5 {
		t.Errorf("(+ ?x 1) = %v, %v", v, err)
	}
	if _, err := evalStr(t, "(+ ?y 1)", b); err == nil {
		t.Error("unbound variable evaluated")
	}
}

func TestValueHelpers(t *testing.T) {
	if !Sym("?x").IsVariable() || Sym("x").IsVariable() || !Sym("?").IsVariable() {
		t.Error("IsVariable misclassifies")
	}
	if Str("a").Equal(Sym("a")) {
		t.Error("cross-kind equality")
	}
	if Num(1).String() != "1" || Str("s").String() != `"s"` {
		t.Errorf("String renderings: %q %q", Num(1).String(), Str("s").String())
	}
	defer func() {
		if recover() == nil {
			t.Error("F with unsupported type did not panic")
		}
	}()
	F(struct{}{})
}

// Property: arithmetic on two arbitrary floats matches Go semantics.
func TestPropertyArithmetic(t *testing.T) {
	prop := func(a, b float64) bool {
		bnd := newBindings()
		bnd.setVar("?a", Num(a))
		bnd.setVar("?b", Num(b))
		forms, _ := readAll("(+ ?a ?b)")
		v, err := eval(forms[0], bnd)
		if err != nil {
			return false
		}
		want := a + b
		return v.Num == want || (v.Num != v.Num && want != want) // NaN == NaN
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineAddRuleAndRules(t *testing.T) {
	e := NewEngine()
	if got := e.Rules(); len(got) != 0 {
		t.Errorf("Rules before Load = %v", got)
	}
	p, err := Compile("", `(defrule a (x) => (assert (y)))`)
	if err != nil {
		t.Fatal(err)
	}
	e.Load(p)
	if got := e.Rules(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Rules = %v", got)
	}
	e.AssertF("x")
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(e.FactsMatching(Sym("y"))) != 1 {
		t.Error("loaded rule did not fire")
	}
}

func TestRetractUnknownID(t *testing.T) {
	e := NewEngine()
	if e.Retract(99) {
		t.Error("retract of unknown id reported success")
	}
}
