package rules

import (
	"fmt"
)

// Templates give facts named slots, as CLIPS deftemplate does:
//
//	(deftemplate reading
//	  (slot proc)
//	  (slot attr)
//	  (slot value (default 0)))
//
// Templated facts and patterns are written with (slot value) pairs in any
// order; omitted slots take their default in facts and match anything in
// patterns:
//
//	(assert (reading (proc p1) (attr frame_rate) (value 14)))
//	(defrule r (reading (proc ?p) (value ?v)) => ...)
//
// Internally a templated fact is desugared to an ordered tuple
// (relation slot1 slot2 ...) in declaration order, so the matching core
// is shared with ordered facts.

// slotDef is one template slot.
type slotDef struct {
	name string
	def  Value // default for omitted slots in facts
	hasD bool
}

// template is a named fact shape.
type template struct {
	name  string
	slots []slotDef
}

func (t *template) slotIndex(name string) int {
	for i, s := range t.slots {
		if s.name == name {
			return i
		}
	}
	return -1
}

// parseDeftemplate parses a (deftemplate name (slot n [(default v)])...).
func parseDeftemplate(form sexpr) (*template, error) {
	if len(form.list) < 2 || form.list[1].atom == nil || form.list[1].atom.Kind != SymbolKind {
		return nil, fmt.Errorf("rules: line %d: deftemplate needs a name", form.line)
	}
	t := &template{name: form.list[1].atom.Sym}
	for _, se := range form.list[2:] {
		if se.head() != "slot" || len(se.list) < 2 || se.list[1].atom == nil {
			return nil, fmt.Errorf("rules: line %d: bad slot definition %s", se.line, se)
		}
		sd := slotDef{name: se.list[1].atom.Sym}
		for _, opt := range se.list[2:] {
			if opt.head() == "default" && len(opt.list) == 2 && opt.list[1].atom != nil {
				sd.def = *opt.list[1].atom
				sd.hasD = true
			} else {
				return nil, fmt.Errorf("rules: line %d: unsupported slot option %s", opt.line, opt)
			}
		}
		if t.slotIndex(sd.name) >= 0 {
			return nil, fmt.Errorf("rules: line %d: duplicate slot %q", se.line, sd.name)
		}
		t.slots = append(t.slots, sd)
	}
	if len(t.slots) == 0 {
		return nil, fmt.Errorf("rules: line %d: template %s has no slots", form.line, t.name)
	}
	return t, nil
}

// isSlotForm reports whether every element after the head is a
// (slotname value) pair — the templated syntax.
func isSlotForm(e sexpr) bool {
	if len(e.list) < 2 {
		return false
	}
	for _, c := range e.list[1:] {
		if !c.isList() || len(c.list) != 2 || c.list[0].atom == nil ||
			c.list[0].atom.Kind != SymbolKind {
			return false
		}
	}
	return true
}

// desugar converts a templated fact/pattern form into an ordered tuple
// using the template's slot order. missing selects the filler for omitted
// slots: defaults (facts) or wildcards (patterns).
func (t *template) desugar(e sexpr, pattern bool) ([]Value, error) {
	tuple := make([]Value, len(t.slots)+1)
	tuple[0] = Sym(t.name)
	seen := make([]bool, len(t.slots))
	for _, c := range e.list[1:] {
		slot := c.list[0].atom.Sym
		i := t.slotIndex(slot)
		if i < 0 {
			return nil, fmt.Errorf("rules: line %d: template %s has no slot %q", e.line, t.name, slot)
		}
		if seen[i] {
			return nil, fmt.Errorf("rules: line %d: slot %q given twice", e.line, slot)
		}
		if c.list[1].atom == nil {
			return nil, fmt.Errorf("rules: line %d: slot %q value must be an atom", e.line, slot)
		}
		tuple[i+1] = *c.list[1].atom
		seen[i] = true
	}
	for i, s := range t.slots {
		if seen[i] {
			continue
		}
		switch {
		case pattern:
			tuple[i+1] = Sym("?")
		case s.hasD:
			tuple[i+1] = s.def
		default:
			return nil, fmt.Errorf("rules: template %s: slot %q has no default and was omitted", t.name, s.name)
		}
	}
	if !pattern {
		for _, v := range tuple {
			if v.IsVariable() {
				return nil, fmt.Errorf("rules: variable %s in templated fact", v)
			}
		}
	}
	return tuple, nil
}

// compileForm compiles a templated RHS assert form to the item
// expressions of the ordered tuple (slot values may be computed; omitted
// slots take their default).
func (t *template) compileForm(form sexpr, slot func(string) int) ([]expr, error) {
	items := make([]expr, len(t.slots)+1)
	items[0] = constant(Sym(t.name))
	for _, c := range form.list[1:] {
		i := t.slotIndex(c.list[0].atom.Sym)
		if i < 0 {
			return nil, fmt.Errorf("template %s has no slot %q", t.name, c.list[0].atom.Sym)
		}
		items[i+1] = compileExpr(c.list[1], slot)
	}
	for i, s := range t.slots {
		if items[i+1] == nil && !s.hasD {
			return nil, fmt.Errorf("template %s: slot %q omitted without default", t.name, s.name)
		} else if items[i+1] == nil {
			items[i+1] = constant(s.def)
		}
	}
	return items, nil
}

// AssertTemplate asserts a templated fact from Go: slot name/value pairs;
// omitted slots use their defaults.
func (e *Engine) AssertTemplate(name string, slots map[string]Value) (int, error) {
	t, ok := e.prog.templates[name]
	if !ok {
		return 0, fmt.Errorf("rules: unknown template %q", name)
	}
	tuple := make([]Value, len(t.slots)+1)
	tuple[0] = Sym(name)
	for i, s := range t.slots {
		if v, ok := slots[s.name]; ok {
			tuple[i+1] = v
		} else if s.hasD {
			tuple[i+1] = s.def
		} else {
			return 0, fmt.Errorf("rules: template %s: slot %q missing", name, s.name)
		}
	}
	for n := range slots {
		if t.slotIndex(n) < 0 {
			return 0, fmt.Errorf("rules: template %s has no slot %q", name, n)
		}
	}
	return e.Assert(tuple...), nil
}
