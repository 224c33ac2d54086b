// Package rules implements the CLIPS-like forward-chaining production
// system the paper's QoS Host Manager and Domain Manager use for violation
// diagnosis ("The inference engine, rule set and fact repository are
// implemented using CLIPS"). Rules are written in an s-expression DSL:
//
//	(defrule local-cpu-starvation
//	  (declare (salience 10))
//	  (violation ?proc ?policy)
//	  (reading ?proc buffer_size ?len)
//	  (test (> ?len 8))
//	  =>
//	  (assert (diagnosis ?proc local-cpu))
//	  (call boost-cpu ?proc))
//
// Facts are ordered tuples of symbols, numbers and strings. A rule set is
// compiled once when loaded (compile.go: variables to frame slots,
// expressions to closures, patterns to their alpha memories) and the
// conflict set is kept between firings (agenda.go), so a diagnosis episode
// allocates its facts and little else. Conflict resolution is salience,
// recency, definition order, with refraction; negated patterns, tests,
// retraction via pattern bindings (?f <- (...)) and callbacks into
// registered Go functions are supported.
package rules

import (
	"reflect"
	"strconv"
	"strings"
)

// Kind discriminates Value variants.
type Kind int

const (
	// SymbolKind is a bare identifier like frame-rate or local-cpu.
	SymbolKind Kind = iota
	// NumberKind is a float64.
	NumberKind
	// StringKind is a double-quoted string.
	StringKind
)

// Value is one atom in a fact or pattern.
type Value struct {
	Kind Kind
	Sym  string
	Num  float64
	Str  string
}

// Sym returns a symbol value.
func Sym(s string) Value { return Value{Kind: SymbolKind, Sym: s} }

// Num returns a numeric value.
func Num(f float64) Value { return Value{Kind: NumberKind, Num: f} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: StringKind, Str: s} }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool { return equal(&v, &o) }

// equal is Equal without copying the operands (the matcher's inner loop).
func equal(v, o *Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case SymbolKind:
		return v.Sym == o.Sym
	case NumberKind:
		return v.Num == o.Num
	default:
		return v.Str == o.Str
	}
}

// IsVariable reports whether a symbol names a pattern variable (?x) or the
// anonymous wildcard (?).
func (v Value) IsVariable() bool {
	return v.Kind == SymbolKind && strings.HasPrefix(v.Sym, "?")
}

func (v Value) String() string {
	if v.Kind == SymbolKind {
		return v.Sym
	}
	return string(appendValue(nil, v))
}

// appendValue renders v as String does, into buf.
func appendValue(buf []byte, v Value) []byte {
	switch v.Kind {
	case SymbolKind:
		return append(buf, v.Sym...)
	case NumberKind:
		return strconv.AppendFloat(buf, v.Num, 'g', -1, 64)
	default:
		return strconv.AppendQuote(buf, v.Str)
	}
}

// appendTuple renders items as "(a b c)" into buf.
func appendTuple(buf []byte, items []Value) []byte {
	buf = append(buf, '(')
	for i, v := range items {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = appendValue(buf, v)
	}
	return append(buf, ')')
}

// Fact is an ordered tuple; the first element is conventionally the
// relation name. Facts are immutable once asserted. The engine reuses
// the storage of a retracted fact once nothing of its own refers to it
// (see Engine.unlist) — unless a caller was handed the fact (Facts,
// FactsMatching), which then stays as it is for good.
type Fact struct {
	id     int
	items  []Value
	hash   uint64 // tuple hash (duplicate detection)
	next   *Fact  // next live fact with the same hash
	gone   bool   // retracted; memories skip it until they drop it
	shared bool   // handed to a caller: never reused
	listed uint8  // memories still listing it: its relation's and all of working memory
	// inline backs items of up to four atoms: a typical fact is one allocation.
	inline [4]Value
}

// sameTuple reports whether two tuples hold equal atoms.
func sameTuple(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equal(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// ID returns the working-memory fact identifier.
func (f *Fact) ID() int { return f.id }

// Len returns the tuple arity.
func (f *Fact) Len() int { return len(f.items) }

// At returns the i'th atom.
func (f *Fact) At(i int) Value { return f.items[i] }

// Items returns a copy of the tuple.
func (f *Fact) Items() []Value { return append([]Value(nil), f.items...) }

// Relation returns the first symbol, or "" for malformed facts.
func (f *Fact) Relation() string {
	if len(f.items) > 0 && f.items[0].Kind == SymbolKind {
		return f.items[0].Sym
	}
	return ""
}

func (f *Fact) String() string { return string(appendTuple(nil, f.items)) }

// F builds a fact tuple from Go values: string → symbol, float64/int →
// number, use Str(...) explicitly for strings. The arguments do not escape.
func F(items ...any) []Value {
	out := make([]Value, len(items))
	for i, it := range items {
		switch x := it.(type) {
		case string:
			out[i] = Sym(x)
		case float64:
			out[i] = Num(x)
		case int:
			out[i] = Num(float64(x))
		case Value:
			out[i] = x
		default:
			panic("rules: unsupported fact item " + reflect.TypeOf(it).String())
		}
	}
	return out
}
