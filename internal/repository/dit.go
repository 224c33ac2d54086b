package repository

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Scope selects how much of the tree a search covers.
type Scope int

const (
	// ScopeBase matches only the base entry itself.
	ScopeBase Scope = iota
	// ScopeOne matches immediate children of the base.
	ScopeOne
	// ScopeSub matches the base and every descendant.
	ScopeSub
)

// Directory is the in-memory information tree. It is safe for concurrent
// use (the live TCP server reads and writes it from connection
// goroutines).
type Directory struct {
	mu      sync.RWMutex
	entries map[DN]*Entry
	schema  *Schema // optional; nil disables validation
}

// NewDirectory creates an empty directory validating against schema
// (pass nil to disable schema checks).
func NewDirectory(schema *Schema) *Directory {
	return &Directory{entries: make(map[DN]*Entry), schema: schema}
}

// Len returns the number of entries.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Add inserts an entry. The parent must exist (except for root-level
// entries with no parent), the DN must be free, and the entry must
// satisfy the schema.
func (d *Directory) Add(e *Entry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addLocked(e)
}

// addLocked is Add with d.mu already held.
func (d *Directory) addLocked(e *Entry) error {
	dn := e.DN.Normalize()
	if _, dup := d.entries[dn]; dup {
		return fmt.Errorf("repository: entry already exists: %s", dn)
	}
	if parent := dn.Parent(); parent != "" {
		if _, ok := d.entries[parent]; !ok {
			return fmt.Errorf("repository: parent does not exist: %s", parent)
		}
	}
	if d.schema != nil {
		if err := d.schema.Check(e); err != nil {
			return err
		}
	}
	c := e.Clone()
	c.DN = dn
	d.entries[dn] = c
	return nil
}

// Get returns a copy of the entry at dn, or nil.
func (d *Directory) Get(dn DN) *Entry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[dn.Normalize()]
	if !ok {
		return nil
	}
	return e.Clone()
}

// Delete removes the entry at dn. Entries with children cannot be
// removed.
func (d *Directory) Delete(dn DN) error {
	n := dn.Normalize()
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[n]; !ok {
		return fmt.Errorf("repository: no such entry: %s", n)
	}
	for other := range d.entries {
		if other.IsDescendantOf(n) {
			return fmt.Errorf("repository: entry has children: %s", n)
		}
	}
	delete(d.entries, n)
	return nil
}

// DeleteTree removes the entry and all its descendants, returning how
// many entries were removed.
func (d *Directory) DeleteTree(dn DN) int {
	n := dn.Normalize()
	d.mu.Lock()
	defer d.mu.Unlock()
	removed := 0
	for other := range d.entries {
		if other == n || other.IsDescendantOf(n) {
			delete(d.entries, other)
			removed++
		}
	}
	return removed
}

// Modify replaces the attributes of an existing entry with those of e.
func (d *Directory) Modify(e *Entry) error {
	dn := e.DN.Normalize()
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[dn]; !ok {
		return fmt.Errorf("repository: no such entry: %s", dn)
	}
	if d.schema != nil {
		if err := d.schema.Check(e); err != nil {
			return err
		}
	}
	c := e.Clone()
	c.DN = dn
	d.entries[dn] = c
	return nil
}

// Search returns copies of the entries within scope of base that match
// the filter, sorted by DN for determinism. A nil filter matches all.
func (d *Directory) Search(base DN, scope Scope, f Filter) []*Entry {
	b := base.Normalize()
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []*Entry
	for dn, e := range d.entries {
		switch scope {
		case ScopeBase:
			if dn != b {
				continue
			}
		case ScopeOne: // dn is a map key, b was normalised above
			if parentOf(dn) != b {
				continue
			}
		case ScopeSub:
			if dn != b && !under(dn, b) && b != "" {
				continue
			}
		}
		if f == nil || f.Matches(e) {
			out = append(out, e.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DN < out[j].DN })
	return out
}

// EnsureParents creates missing ancestor container entries (objectClass
// organizationalUnit / organization) so callers can add deep entries
// without boilerplate. The whole chain walk runs under one write lock:
// checking existence and inserting in separate critical sections would
// let two concurrent callers both find an ancestor missing and then
// race to create it, surfacing a spurious "entry already exists" error
// to one of them.
func (d *Directory) EnsureParents(dn DN) error {
	var chain []DN
	for p := dn.Normalize().Parent(); p != ""; p = p.Parent() {
		chain = append(chain, p)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := len(chain) - 1; i >= 0; i-- {
		p := chain[i]
		if _, ok := d.entries[p]; ok {
			continue
		}
		e := NewEntry(p)
		rdn := p.RDN()
		kv := strings.SplitN(rdn, "=", 2)
		cls := "organizationalUnit"
		if kv[0] == "o" {
			cls = "organization"
		}
		e.Set("objectClass", cls)
		if len(kv) == 2 {
			e.Set(kv[0], kv[1])
		}
		if err := d.addLocked(e); err != nil {
			return err
		}
	}
	return nil
}
