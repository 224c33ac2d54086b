package rules

import (
	"fmt"
	"math"
)

// bindings is a by-name variable environment: names (with the leading
// '?') and, where a caller has them, their values — a name's index is its
// slot in the frame compiled code runs over. Environments hold a handful
// of entries; lookup is a linear scan.
type bindings struct {
	names []string
	vals  []Value
}

// slot returns the frame index of a variable, or -1 when unbound.
func (b *bindings) slot(name string) int {
	for i, n := range b.names {
		if n == name {
			return i
		}
	}
	return -1
}

// truthy: everything except the symbol FALSE is true (CLIPS convention).
func truthy(v Value) bool {
	return !(v.Kind == SymbolKind && v.Sym == "FALSE")
}

func boolVal(b bool) Value {
	if b {
		return Sym("TRUE")
	}
	return Sym("FALSE")
}

// expr is a compiled test or right-hand-side expression: a closure over
// frame slots. Evaluating one walks no s-expression, looks up no name
// and allocates nothing on the success path.
type expr func(frame []Value) (Value, error)

func constant(v Value) expr { return func([]Value) (Value, error) { return v, nil } }

// failing defers a compile-time finding to evaluation time: a rule set with
// one bad expression loads; its test then never matches, its action aborts Run.
func failing(format string, args ...any) expr {
	err := fmt.Errorf(format, args...)
	return func([]Value) (Value, error) { return Value{}, err }
}

// compileExpr compiles e with variables resolved to frame slots by slot
// (negative: unbound). Atoms evaluate to themselves, variables to their
// slot; lists apply a builtin.
func compileExpr(e sexpr, slot func(name string) int) expr {
	if e.atom != nil {
		if !e.atom.IsVariable() {
			return constant(*e.atom)
		}
		i := slot(e.atom.Sym)
		if i < 0 {
			return failing("unbound variable %s", e.atom.Sym)
		}
		return func(frame []Value) (Value, error) { return frame[i], nil }
	}
	op := e.head()
	if op == "" {
		return failing("cannot evaluate %s", e)
	}
	args := make([]expr, len(e.list)-1)
	for i, a := range e.list[1:] {
		args[i] = compileExpr(a, slot)
	}
	switch op {
	case "and", "or": // short-circuit: stop at the first operand equal to stop
		stop := op == "or"
		return func(frame []Value) (Value, error) {
			for _, a := range args {
				v, err := a(frame)
				if err != nil {
					return Value{}, err
				}
				if truthy(v) == stop {
					return boolVal(stop), nil
				}
			}
			return boolVal(!stop), nil
		}
	case "not":
		if len(args) != 1 {
			return failing("not takes one argument")
		}
		return func(frame []Value) (Value, error) {
			v, err := args[0](frame)
			return boolVal(err == nil && !truthy(v)), err
		}
	case "eq", "neq":
		if len(args) < 2 || op == "neq" && len(args) != 2 {
			return failing("%s: needs two arguments (eq: at least two)", op)
		}
		return func(frame []Value) (Value, error) {
			first, err := args[0](frame)
			same := true
			for i := 1; i < len(args) && err == nil; i++ {
				var v Value
				v, err = args[i](frame)
				same = same && equal(&first, &v)
			}
			return boolVal(same == (op == "eq")), err
		}
	case "abs":
		if len(args) != 1 {
			return failing("abs: takes one argument")
		}
		return func(frame []Value) (Value, error) {
			x, err := number(op, args, 0, frame)
			return Num(math.Abs(x)), err
		}
	}
	if cmp, ok := comparisons[op]; ok {
		if len(args) < 2 {
			return failing("%s: needs at least two arguments", op)
		}
		return func(frame []Value) (Value, error) {
			holds := true
			prev, err := number(op, args, 0, frame)
			for i := 1; i < len(args) && err == nil; i++ {
				var x float64
				x, err = number(op, args, i, frame)
				holds, prev = holds && cmp(prev, x), x
			}
			return boolVal(holds), err
		}
	}
	a, ok := arithmetic[op]
	if !ok {
		return failing("unknown builtin %q", op)
	}
	if len(args) < a.min {
		return failing("%s: needs at least %d argument(s)", op, a.min)
	}
	negate, divide := op == "-" && len(args) == 1, op == "/"
	return func(frame []Value) (Value, error) {
		acc := a.unit
		for i := range args {
			x, err := number(op, args, i, frame)
			switch {
			case err != nil:
				return Value{}, err
			case i == 0:
				acc = x
			case divide && x == 0:
				return Value{}, fmt.Errorf("/: division by zero")
			default:
				acc = a.fold(acc, x)
			}
		}
		if negate {
			acc = -acc
		}
		return Num(acc), nil
	}
}

// number evaluates the i'th argument of op and requires a number.
func number(op string, args []expr, i int, frame []Value) (float64, error) {
	v, err := args[i](frame)
	if err == nil && v.Kind != NumberKind {
		err = fmt.Errorf("%s: argument %d is not a number: %s", op, i+1, v)
	}
	return v.Num, err
}

// arithmetic lists the folding numeric builtins: the fewest arguments
// each accepts, its value on none, and the fold step.
var arithmetic = map[string]struct {
	min  int
	unit float64
	fold func(acc, x float64) float64
}{
	"+":   {0, 0, func(a, x float64) float64 { return a + x }},
	"*":   {0, 1, func(a, x float64) float64 { return a * x }},
	"-":   {1, 0, func(a, x float64) float64 { return a - x }},
	"/":   {2, 0, func(a, x float64) float64 { return a / x }},
	"min": {1, 0, math.Min},
	"max": {1, 0, math.Max},
}

// comparisons lists the chained numeric predicates.
var comparisons = map[string]func(a, b float64) bool{
	">":  func(a, b float64) bool { return a > b },
	">=": func(a, b float64) bool { return a >= b },
	"<":  func(a, b float64) bool { return a < b },
	"<=": func(a, b float64) bool { return a <= b },
	"=":  func(a, b float64) bool { return a == b },
	"!=": func(a, b float64) bool { return a != b },
}
