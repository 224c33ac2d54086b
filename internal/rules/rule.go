package rules

import (
	"fmt"
)

// ceKind discriminates condition elements on a rule's left-hand side.
type ceKind int

const (
	cePattern ceKind = iota
	ceNegated
	ceTest
)

type condElem struct {
	kind    ceKind
	pattern []Value // cePattern, ceNegated
	bindVar string  // fact-address variable from "?f <- (pattern)", or ""
	test    sexpr   // ceTest
}

// Rule is one parsed production.
type Rule struct {
	Name     string
	Salience int
	ces      []condElem
	actions  []sexpr
}

// ParseRules parses rule-DSL source text containing (deftemplate ...),
// (defrule ...) and (deffacts ...) forms. It returns the rules and the
// initial facts (templates are resolved during parsing; Compile keeps
// them, for AssertTemplate).
func ParseRules(src string) ([]*Rule, [][]Value, error) {
	rs, facts, _, err := parseAll(src)
	return rs, facts, err
}

func parseAll(src string) ([]*Rule, [][]Value, map[string]*template, error) {
	forms, err := readAll(src)
	if err != nil {
		return nil, nil, nil, err
	}
	// Collect templates first so rules can be defined before or after.
	templates := make(map[string]*template)
	for _, form := range forms {
		if form.head() == "deftemplate" {
			t, err := parseDeftemplate(form)
			if err != nil {
				return nil, nil, nil, err
			}
			if _, dup := templates[t.name]; dup {
				return nil, nil, nil, fmt.Errorf("rules: duplicate template %q", t.name)
			}
			templates[t.name] = t
		}
	}
	var rs []*Rule
	var facts [][]Value
	for _, form := range forms {
		switch form.head() {
		case "deftemplate":
			// handled above
		case "defrule":
			r, err := parseDefrule(form, templates)
			if err != nil {
				return nil, nil, nil, err
			}
			rs = append(rs, r)
		case "deffacts":
			// (deffacts name (fact...) (fact...))
			if len(form.list) < 2 {
				return nil, nil, nil, fmt.Errorf("rules: line %d: deffacts needs a name", form.line)
			}
			for _, fe := range form.list[2:] {
				tuple, err := literalTuple(fe, templates)
				if err != nil {
					return nil, nil, nil, err
				}
				facts = append(facts, tuple)
			}
		default:
			return nil, nil, nil, fmt.Errorf("rules: line %d: expected deftemplate, defrule or deffacts, got %q", form.line, form.head())
		}
	}
	return rs, facts, templates, nil
}

func parseDefrule(form sexpr, templates map[string]*template) (*Rule, error) {
	if len(form.list) < 3 || form.list[1].atom == nil || form.list[1].atom.Kind != SymbolKind {
		return nil, fmt.Errorf("rules: line %d: defrule needs a name", form.line)
	}
	r := &Rule{Name: form.list[1].atom.Sym}
	body := form.list[2:]

	// Optional documentation string.
	if len(body) > 0 && body[0].atom != nil && body[0].atom.Kind == StringKind {
		body = body[1:]
	}
	// Optional (declare (salience N)).
	if len(body) > 0 && body[0].head() == "declare" {
		for _, d := range body[0].list[1:] {
			if d.head() == "salience" && len(d.list) == 2 && d.list[1].atom != nil && d.list[1].atom.Kind == NumberKind {
				r.Salience = int(d.list[1].atom.Num)
			} else {
				return nil, fmt.Errorf("rules: line %d: unsupported declare clause %s", d.line, d)
			}
		}
		body = body[1:]
	}

	// Split LHS => RHS.
	arrow := -1
	for i, e := range body {
		if e.atom != nil && e.atom.Kind == SymbolKind && e.atom.Sym == "=>" {
			arrow = i
			break
		}
	}
	if arrow < 0 {
		return nil, fmt.Errorf("rules: rule %s: missing =>", r.Name)
	}
	lhs, rhs := body[:arrow], body[arrow+1:]

	for i := 0; i < len(lhs); i++ {
		e := lhs[i]
		// Fact-address binding: ?f <- (pattern)
		if e.atom != nil && e.atom.IsVariable() {
			if i+2 >= len(lhs) || lhs[i+1].atom == nil || lhs[i+1].atom.Sym != "<-" || !lhs[i+2].isList() {
				return nil, fmt.Errorf("rules: rule %s: malformed fact-address binding at %s", r.Name, e)
			}
			tuple, err := patternTuple(lhs[i+2], templates)
			if err != nil {
				return nil, fmt.Errorf("rules: rule %s: %w", r.Name, err)
			}
			r.ces = append(r.ces, condElem{kind: cePattern, pattern: tuple, bindVar: e.atom.Sym})
			i += 2
			continue
		}
		switch e.head() {
		case "test":
			if len(e.list) != 2 {
				return nil, fmt.Errorf("rules: rule %s: test takes one expression", r.Name)
			}
			r.ces = append(r.ces, condElem{kind: ceTest, test: e.list[1]})
		case "not":
			if len(e.list) != 2 || !e.list[1].isList() {
				return nil, fmt.Errorf("rules: rule %s: not takes one pattern", r.Name)
			}
			tuple, err := patternTuple(e.list[1], templates)
			if err != nil {
				return nil, fmt.Errorf("rules: rule %s: %w", r.Name, err)
			}
			r.ces = append(r.ces, condElem{kind: ceNegated, pattern: tuple})
		default:
			if !e.isList() {
				return nil, fmt.Errorf("rules: rule %s: unexpected LHS atom %s", r.Name, e)
			}
			tuple, err := patternTuple(e, templates)
			if err != nil {
				return nil, fmt.Errorf("rules: rule %s: %w", r.Name, err)
			}
			r.ces = append(r.ces, condElem{kind: cePattern, pattern: tuple})
		}
	}
	if len(r.ces) == 0 {
		return nil, fmt.Errorf("rules: rule %s: empty LHS", r.Name)
	}

	for _, e := range rhs {
		if !e.isList() {
			return nil, fmt.Errorf("rules: rule %s: RHS action must be a list, got %s", r.Name, e)
		}
		switch e.head() {
		case "assert", "retract", "call", "log":
		default:
			return nil, fmt.Errorf("rules: rule %s: unknown action %q", r.Name, e.head())
		}
		r.actions = append(r.actions, e)
	}
	if len(r.actions) == 0 {
		return nil, fmt.Errorf("rules: rule %s: empty RHS", r.Name)
	}
	return r, nil
}

// patternTuple flattens a pattern list to atoms (variables allowed);
// templated slot forms are desugared to ordered tuples.
func patternTuple(e sexpr, templates map[string]*template) ([]Value, error) {
	if t, ok := templates[e.head()]; ok && isSlotForm(e) {
		return t.desugar(e, true)
	}
	tuple := make([]Value, 0, len(e.list))
	for _, c := range e.list {
		if c.atom == nil {
			return nil, fmt.Errorf("line %d: nested list in pattern %s", e.line, e)
		}
		tuple = append(tuple, *c.atom)
	}
	if len(tuple) == 0 {
		return nil, fmt.Errorf("line %d: empty pattern", e.line)
	}
	return tuple, nil
}

// literalTuple flattens a ground fact list (no variables); templated
// slot forms are desugared with defaults for omitted slots.
func literalTuple(e sexpr, templates map[string]*template) ([]Value, error) {
	if t, ok := templates[e.head()]; ok && isSlotForm(e) {
		return t.desugar(e, false)
	}
	tuple, err := patternTuple(e, templates)
	if err != nil {
		return nil, err
	}
	for _, v := range tuple {
		if v.IsVariable() {
			return nil, fmt.Errorf("line %d: variable %s in fact literal", e.line, v)
		}
	}
	return tuple, nil
}
