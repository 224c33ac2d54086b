// Package repository implements the policy repository of Section 6: an
// LDAP-like directory (DN-addressed entries with multi-valued attributes
// and object classes), RFC 4515-style search filters, LDIF import/export,
// a schema for the paper's information model (applications, executables,
// sensors, policies, conditions, actions, user roles), and a repository
// service reachable in-process or over TCP.
package repository

import (
	"fmt"
	"sort"
	"strings"
)

// DN is a distinguished name such as
// "cn=NotifyQoSViolation,ou=policies,o=qos". Comparison is
// case-insensitive with insignificant whitespace around components.
type DN string

// Normalize returns the canonical form used as a map key.
func (d DN) Normalize() DN {
	parts := strings.Split(string(d), ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		kv := strings.SplitN(p, "=", 2)
		if len(kv) == 2 {
			p = strings.ToLower(strings.TrimSpace(kv[0])) + "=" + strings.TrimSpace(kv[1])
		}
		out = append(out, p)
	}
	return DN(strings.Join(out, ","))
}

// Parent returns the DN with the leftmost RDN removed ("" at the root).
func (d DN) Parent() DN { return parentOf(d.Normalize()) }

// RDN returns the leftmost relative DN component.
func (d DN) RDN() string {
	s := string(d.Normalize())
	if i := strings.Index(s, ","); i >= 0 {
		return s[:i]
	}
	return s
}

// IsDescendantOf reports whether d lies strictly under base.
func (d DN) IsDescendantOf(base DN) bool { return under(d.Normalize(), base.Normalize()) }

// parentOf and under are Parent and IsDescendantOf for DNs already in
// canonical form — the directory's map keys, a search base normalised
// once — which a scan over every entry must not normalise again.
func parentOf(n DN) DN {
	if i := strings.IndexByte(string(n), ','); i >= 0 {
		return n[i+1:]
	}
	return ""
}

func under(n, base DN) bool {
	cut := len(n) - len(base) - 1
	return cut > 0 && n[cut] == ',' && n[cut+1:] == base
}

// Entry is one directory object: a DN plus multi-valued attributes.
// Attribute names are case-insensitive (stored lower-cased).
type Entry struct {
	DN    DN
	attrs map[string][]string
}

// NewEntry creates an empty entry at dn.
func NewEntry(dn DN) *Entry {
	return &Entry{DN: dn.Normalize(), attrs: make(map[string][]string)}
}

// Add appends values to an attribute.
func (e *Entry) Add(attr string, values ...string) *Entry {
	k := strings.ToLower(attr)
	e.attrs[k] = append(e.attrs[k], values...)
	return e
}

// Set replaces an attribute's values.
func (e *Entry) Set(attr string, values ...string) *Entry {
	e.attrs[strings.ToLower(attr)] = append([]string(nil), values...)
	return e
}

// Delete removes an attribute entirely.
func (e *Entry) Delete(attr string) { delete(e.attrs, strings.ToLower(attr)) }

// Get returns the first value of an attribute, or "".
func (e *Entry) Get(attr string) string {
	vs := e.attrs[strings.ToLower(attr)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// GetAll returns all values of an attribute (nil if absent).
func (e *Entry) GetAll(attr string) []string {
	vs := e.attrs[strings.ToLower(attr)]
	if vs == nil {
		return nil
	}
	return append([]string(nil), vs...)
}

// Has reports whether the attribute is present with at least one value.
func (e *Entry) Has(attr string) bool { return len(e.attrs[strings.ToLower(attr)]) > 0 }

// HasValue reports whether the attribute contains the value
// (case-insensitive comparison, as common LDAP matching rules do).
func (e *Entry) HasValue(attr, value string) bool {
	for _, v := range e.attrs[strings.ToLower(attr)] {
		if strings.EqualFold(v, value) {
			return true
		}
	}
	return false
}

// Attributes returns the attribute names, sorted.
func (e *Entry) Attributes() []string {
	out := make([]string, 0, len(e.attrs))
	for k := range e.attrs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ObjectClasses returns the entry's objectClass values.
func (e *Entry) ObjectClasses() []string { return e.GetAll("objectclass") }

// Clone returns a deep copy.
func (e *Entry) Clone() *Entry {
	c := NewEntry(e.DN)
	for k, vs := range e.attrs {
		c.attrs[k] = append([]string(nil), vs...)
	}
	return c
}

func (e *Entry) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dn: %s\n", e.DN)
	for _, k := range e.Attributes() {
		for _, v := range e.attrs[k] {
			fmt.Fprintf(&sb, "%s: %s\n", k, v)
		}
	}
	return sb.String()
}
