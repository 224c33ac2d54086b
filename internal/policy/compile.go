package policy

import (
	"fmt"

	"softqos/internal/msg"
)

// Requirement returns the QoS requirement expression of a policy whose
// "on" clause is not(<requirement>) — the usual shape for application QoS
// policies (the actions run when the requirement no longer holds). It
// returns an error for any other shape.
func (p *Policy) Requirement() (Expr, error) {
	n, ok := p.On.(Not)
	if !ok {
		return nil, fmt.Errorf("policy %s: on-clause is not of the form not(<requirement>)", p.Name)
	}
	return n.E, nil
}

// flatten decomposes a requirement into primitive comparisons plus the
// single boolean connective joining them ("and" unless the top level is a
// disjunction). Mixed or nested connectives are rejected: §5.2 represents
// a policy as a conjunction or disjunction of attribute constraints.
func flatten(req Expr) (conds []Comparison, connective string, err error) {
	switch e := req.(type) {
	case Comparison:
		return []Comparison{e}, "and", nil
	case And:
		for _, sub := range e.Exprs {
			c, ok := sub.(Comparison)
			if !ok {
				return nil, "", fmt.Errorf("nested %T inside conjunction", sub)
			}
			conds = append(conds, c)
		}
		return conds, "and", nil
	case Or:
		for _, sub := range e.Exprs {
			c, ok := sub.(Comparison)
			if !ok {
				return nil, "", fmt.Errorf("nested %T inside disjunction", sub)
			}
			conds = append(conds, c)
		}
		return conds, "or", nil
	default:
		return nil, "", fmt.Errorf("unsupported requirement %T", req)
	}
}

// expand rewrites one comparison into sensor-checkable primitive
// conditions: the tolerance form "x = 25(+2)(-2)" becomes "x > 23" and
// "x < 27" (paper, Example 3).
func expand(c Comparison) []Comparison {
	if c.Op == "=" && c.HasTol {
		return []Comparison{
			{Attr: c.Attr, Op: ">", Value: c.Value - c.TolMinus},
			{Attr: c.Attr, Op: "<", Value: c.Value + c.TolPlus},
		}
	}
	return []Comparison{c}
}

// Compile lowers a parsed policy to the wire form delivered to a
// coordinator. sensorFor maps attribute names to the identifier of the
// sensor that monitors each attribute (from the information model).
func Compile(p *Policy, sensorFor map[string]string) (msg.PolicySpec, error) {
	spec := msg.PolicySpec{Name: p.Name}
	req, err := p.Requirement()
	if err != nil {
		return spec, err
	}
	conds, connective, err := flatten(req)
	if err != nil {
		return spec, fmt.Errorf("policy %s: %w", p.Name, err)
	}
	spec.Connective = connective
	for _, c := range conds {
		for _, prim := range expand(c) {
			sensor, ok := sensorFor[prim.Attr]
			if !ok {
				return spec, fmt.Errorf("policy %s: no sensor monitors attribute %q", p.Name, prim.Attr)
			}
			op := prim.Op
			if op == "=" {
				op = "=="
			}
			spec.Conditions = append(spec.Conditions, msg.CondSpec{
				Attribute: prim.Attr,
				Sensor:    sensor,
				Op:        op,
				Value:     prim.Value,
			})
		}
	}
	for _, a := range p.Do {
		as := msg.ActionSpec{Target: a.Target.Base(), Op: a.Op}
		for _, arg := range a.Args {
			switch {
			case arg.Num != nil:
				as.Args = append(as.Args, fnum(*arg.Num))
			case arg.Str != nil:
				as.Args = append(as.Args, *arg.Str)
			default:
				as.Args = append(as.Args, arg.Name)
			}
		}
		spec.Actions = append(spec.Actions, as)
	}
	return spec, nil
}

// Attributes returns the distinct attribute names constrained by the
// policy's requirement, in first-appearance order.
func (p *Policy) Attributes() ([]string, error) {
	req, err := p.Requirement()
	if err != nil {
		return nil, err
	}
	conds, _, err := flatten(req)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, c := range conds {
		if !seen[c.Attr] {
			seen[c.Attr] = true
			out = append(out, c.Attr)
		}
	}
	return out, nil
}
