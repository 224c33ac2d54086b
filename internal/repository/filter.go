package repository

import (
	"fmt"
	"strconv"
	"strings"
)

// Filter is a compiled search filter (RFC 4515 subset: and, or, not,
// equality with '*' wildcards, presence, >=, <=).
type Filter interface {
	Matches(e *Entry) bool
	String() string
}

type andFilter struct{ subs []Filter }
type orFilter struct{ subs []Filter }
type notFilter struct{ sub Filter }

// cmpFilter covers equality (with optional wildcards), presence, >= and <=.
type cmpFilter struct {
	attr string
	op   string // "=", ">=", "<=", "present"
	val  string
}

func (f andFilter) Matches(e *Entry) bool {
	for _, s := range f.subs {
		if !s.Matches(e) {
			return false
		}
	}
	return true
}

func (f orFilter) Matches(e *Entry) bool {
	for _, s := range f.subs {
		if s.Matches(e) {
			return true
		}
	}
	return false
}

func (f notFilter) Matches(e *Entry) bool { return !f.sub.Matches(e) }

func (f cmpFilter) Matches(e *Entry) bool {
	vals := e.GetAll(f.attr)
	switch f.op {
	case "present":
		return len(vals) > 0
	case "=":
		for _, v := range vals {
			if wildcardMatch(strings.ToLower(f.val), strings.ToLower(v)) {
				return true
			}
		}
		return false
	case ">=", "<=":
		for _, v := range vals {
			if numericOrLexCompare(v, f.val, f.op) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// numericOrLexCompare compares numerically when both sides parse as
// numbers, lexically otherwise.
func numericOrLexCompare(v, ref, op string) bool {
	fv, errV := strconv.ParseFloat(v, 64)
	fr, errR := strconv.ParseFloat(ref, 64)
	if errV == nil && errR == nil {
		if op == ">=" {
			return fv >= fr
		}
		return fv <= fr
	}
	if op == ">=" {
		return v >= ref
	}
	return v <= ref
}

// wildcardMatch matches pattern (with '*' wildcards) against s.
func wildcardMatch(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for i := 1; i < len(parts)-1; i++ {
		idx := strings.Index(s, parts[i])
		if idx < 0 {
			return false
		}
		s = s[idx+len(parts[i]):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}

func (f andFilter) String() string { return "(&" + joinFilters(f.subs) + ")" }
func (f orFilter) String() string  { return "(|" + joinFilters(f.subs) + ")" }
func (f notFilter) String() string { return "(!" + f.sub.String() + ")" }
func (f cmpFilter) String() string {
	if f.op == "present" {
		return "(" + f.attr + "=*)"
	}
	return "(" + f.attr + f.op + f.val + ")"
}

func joinFilters(fs []Filter) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// ParseFilter compiles a filter string such as
// "(&(objectClass=qosPolicy)(qosExecutable=mpeg_play))".
func ParseFilter(s string) (Filter, error) {
	p := &filterParser{src: s}
	f, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("repository: trailing characters in filter %q", s)
	}
	return f, nil
}

type filterParser struct {
	src string
	pos int
}

func (p *filterParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *filterParser) parse() (Filter, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, fmt.Errorf("repository: filter must start with '(' at %d in %q", p.pos, p.src)
	}
	p.pos++
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("repository: truncated filter %q", p.src)
	}
	switch p.src[p.pos] {
	case '&', '|':
		op := p.src[p.pos]
		p.pos++
		var subs []Filter
		for {
			p.skipSpace()
			if p.pos < len(p.src) && p.src[p.pos] == ')' {
				p.pos++
				break
			}
			sub, err := p.parse()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
		}
		if len(subs) == 0 {
			return nil, fmt.Errorf("repository: empty %c-filter in %q", op, p.src)
		}
		if op == '&' {
			return andFilter{subs}, nil
		}
		return orFilter{subs}, nil
	case '!':
		p.pos++
		sub, err := p.parse()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("repository: unclosed not-filter in %q", p.src)
		}
		p.pos++
		return notFilter{sub}, nil
	default:
		end := strings.IndexByte(p.src[p.pos:], ')')
		if end < 0 {
			return nil, fmt.Errorf("repository: unclosed comparison in %q", p.src)
		}
		body := p.src[p.pos : p.pos+end]
		p.pos += end + 1
		return parseComparisonFilter(body)
	}
}

func parseComparisonFilter(body string) (Filter, error) {
	for _, op := range []string{">=", "<="} {
		if i := strings.Index(body, op); i > 0 {
			attr := strings.ToLower(strings.TrimSpace(body[:i]))
			if attr == "" {
				return nil, fmt.Errorf("repository: empty attribute in comparison %q", body)
			}
			return cmpFilter{attr: attr, op: op,
				val: strings.TrimSpace(body[i+2:])}, nil
		}
	}
	i := strings.IndexByte(body, '=')
	if i <= 0 {
		return nil, fmt.Errorf("repository: bad comparison %q", body)
	}
	attr := strings.ToLower(strings.TrimSpace(body[:i]))
	if attr == "" {
		return nil, fmt.Errorf("repository: empty attribute in comparison %q", body)
	}
	val := strings.TrimSpace(body[i+1:])
	if val == "*" {
		return cmpFilter{attr: attr, op: "present"}, nil
	}
	return cmpFilter{attr: attr, op: "=", val: val}, nil
}

// Eq builds an equality filter programmatically.
func Eq(attr, val string) Filter { return cmpFilter{attr: strings.ToLower(attr), op: "=", val: val} }

// All builds a conjunction.
func All(fs ...Filter) Filter { return andFilter{fs} }
