package repository

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"softqos/internal/msg"
	"softqos/internal/policy"
)

// Store abstracts where directory operations execute: directly against an
// in-process Directory or remotely through a Client.
type Store interface {
	Add(e *Entry) error
	Modify(e *Entry) error
	Delete(dn DN) error
	DeleteTree(dn DN) (int, error)
	Search(base DN, scope Scope, f Filter) ([]*Entry, error)
	EnsureParents(dn DN) error
}

// LocalStore adapts *Directory to the Store interface.
type LocalStore struct{ Dir *Directory }

// Add implements Store.
func (s LocalStore) Add(e *Entry) error { return s.Dir.Add(e) }

// Modify implements Store.
func (s LocalStore) Modify(e *Entry) error { return s.Dir.Modify(e) }

// Delete implements Store.
func (s LocalStore) Delete(dn DN) error { return s.Dir.Delete(dn) }

// DeleteTree implements Store.
func (s LocalStore) DeleteTree(dn DN) (int, error) { return s.Dir.DeleteTree(dn), nil }

// Search implements Store.
func (s LocalStore) Search(base DN, scope Scope, f Filter) ([]*Entry, error) {
	return s.Dir.Search(base, scope, f), nil
}

// EnsureParents implements Store.
func (s LocalStore) EnsureParents(dn DN) error { return s.Dir.EnsureParents(dn) }

// BaseDN is the root of the QoS management subtree.
const BaseDN = DN("o=qos")

// PolicyMeta records which application/executable/role a stored policy
// applies to. An empty UserRole means "any role".
type PolicyMeta struct {
	Application string
	Executable  string
	UserRole    string
}

// Service is the typed Repository Service of Section 6.2, mapping the
// information model onto directory entries.
type Service struct {
	store Store
}

// NewService wraps a Store.
func NewService(store Store) *Service { return &Service{store: store} }

func dnApplications() DN { return DN("ou=applications," + string(BaseDN)) }
func dnExecutables() DN  { return DN("ou=executables," + string(BaseDN)) }
func dnRoles() DN        { return DN("ou=roles," + string(BaseDN)) }
func dnPolicies() DN     { return DN("ou=policies," + string(BaseDN)) }
func dnRuleSets() DN     { return DN("ou=rulesets," + string(BaseDN)) }

func childDN(parent DN, rdnAttr, name string) DN {
	return DN(rdnAttr + "=" + name + "," + string(parent))
}

// DefineApplication registers an application composed of executables.
func (s *Service) DefineApplication(name string, executables ...string) error {
	dn := childDN(dnApplications(), "cn", name)
	if err := s.store.EnsureParents(dn); err != nil {
		return err
	}
	e := NewEntry(dn).Set("objectClass", "qosApplication").Set("cn", name)
	if len(executables) > 0 {
		e.Set("qosExecutableRef", executables...)
	}
	return s.store.Add(e)
}

// DefineExecutable registers an executable and its instrumented sensors
// (sensor identifier -> monitored attributes). Sensors are stored as
// children of the executable entry; the many-to-many relationship of the
// model is expressed through qosSensorRef values.
func (s *Service) DefineExecutable(name string, sensors map[string][]string) error {
	dn := childDN(dnExecutables(), "cn", name)
	if err := s.store.EnsureParents(dn); err != nil {
		return err
	}
	e := NewEntry(dn).Set("objectClass", "qosExecutable").Set("cn", name)
	var refs []string
	for sensor := range sensors {
		refs = append(refs, sensor)
	}
	if len(refs) > 0 {
		e.Set("qosSensorRef", refs...)
	}
	if err := s.store.Add(e); err != nil {
		return err
	}
	for sensor, attrs := range sensors {
		se := NewEntry(childDN(dn, "cn", sensor)).
			Set("objectClass", "qosSensor").
			Set("cn", sensor).
			Set("qosAttribute", attrs...)
		if err := s.store.Add(se); err != nil {
			return err
		}
	}
	return nil
}

// DefineRole registers a user role.
func (s *Service) DefineRole(name string) error {
	dn := childDN(dnRoles(), "cn", name)
	if err := s.store.EnsureParents(dn); err != nil {
		return err
	}
	return s.store.Add(NewEntry(dn).Set("objectClass", "qosUserRole").Set("cn", name))
}

// SensorsFor returns the executable's sensor->attributes map, or an error
// if the executable is unknown.
func (s *Service) SensorsFor(executable string) (map[string][]string, error) {
	dn := childDN(dnExecutables(), "cn", executable)
	exe, err := s.store.Search(dn, ScopeBase, nil)
	if err != nil {
		return nil, err
	}
	if len(exe) == 0 {
		return nil, fmt.Errorf("repository: unknown executable %q", executable)
	}
	children, err := s.store.Search(dn, ScopeOne, Eq("objectClass", "qosSensor"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string, len(children))
	for _, c := range children {
		out[c.Get("cn")] = c.GetAll("qosAttribute")
	}
	return out, nil
}

// StorePolicy persists a parsed policy under ou=policies: one qosPolicy
// entry carrying the source text plus child qosCondition/qosAction
// entries holding the decomposed representation of §5.2.
func (s *Service) StorePolicy(p *policy.Policy, meta PolicyMeta) error {
	sensors, err := s.SensorsFor(meta.Executable)
	if err != nil {
		return err
	}
	attrSensor := make(map[string]string)
	for sensor, attrs := range sensors {
		for _, a := range attrs {
			attrSensor[a] = sensor
		}
	}
	spec, err := policy.Compile(p, attrSensor)
	if err != nil {
		return err
	}

	// Policies are stored per (policy, executable, role) binding; the cn
	// encodes the binding so one policy definition can be reused.
	cn := policyCN(p.Name, meta)
	dn := childDN(dnPolicies(), "cn", cn)
	if err := s.store.EnsureParents(dn); err != nil {
		return err
	}
	e := NewEntry(dn).
		Set("objectClass", "qosPolicy").
		Set("cn", cn).
		Set("qosSubject", p.Subject.String()).
		Set("qosConnective", spec.Connective).
		Set("qosPolicyText", p.String()).
		Set("qosApplicationRef", meta.Application).
		Set("qosExecutableRef", meta.Executable)
	if meta.UserRole != "" {
		e.Set("qosUserRole", meta.UserRole)
	}
	var targets []string
	for _, t := range p.Targets {
		targets = append(targets, t.String())
	}
	if len(targets) > 0 {
		e.Set("qosTarget", targets...)
	}
	if err := s.store.Add(e); err != nil {
		return err
	}
	for i, c := range spec.Conditions {
		cdn := childDN(dn, "cn", fmt.Sprintf("cond-%d", i+1))
		ce := NewEntry(cdn).
			Set("objectClass", "qosCondition").
			Set("cn", fmt.Sprintf("cond-%d", i+1)).
			Set("qosAttribute", c.Attribute).
			Set("qosOperator", c.Op).
			Set("qosValue", strconv.FormatFloat(c.Value, 'g', -1, 64)).
			Set("qosSensorRef", c.Sensor)
		if err := s.store.Add(ce); err != nil {
			return err
		}
	}
	for i, a := range spec.Actions {
		adn := childDN(dn, "cn", fmt.Sprintf("act-%d", i+1))
		ae := NewEntry(adn).
			Set("objectClass", "qosAction").
			Set("cn", fmt.Sprintf("act-%d", i+1)).
			Set("qosTarget", a.Target).
			Set("qosOperation", a.Op)
		if len(a.Args) > 0 {
			ae.Set("qosArgument", a.Args...)
		}
		if err := s.store.Add(ae); err != nil {
			return err
		}
	}
	return nil
}

// ReplacePolicy stores a policy binding, replacing any existing binding
// under the same cn. If storing the new version fails, the previous
// entries are restored, so a failed replace leaves the repository
// byte-identical to its prior state — the invariant the rollout
// controller's "rollback re-announces unchanged truth" rests on.
func (s *Service) ReplacePolicy(p *policy.Policy, meta PolicyMeta) error {
	// Validate before touching the store: the common failures (unknown
	// executable, compile error) then leave it untouched without ever
	// needing the restore path below.
	sensors, err := s.SensorsFor(meta.Executable)
	if err != nil {
		return err
	}
	attrSensor := make(map[string]string)
	for sensor, attrs := range sensors {
		for _, a := range attrs {
			attrSensor[a] = sensor
		}
	}
	if _, err := policy.Compile(p, attrSensor); err != nil {
		return err
	}

	dn := childDN(dnPolicies(), "cn", policyCN(p.Name, meta))
	prev, err := s.store.Search(dn, ScopeSub, nil)
	if err != nil {
		return err
	}
	if len(prev) > 0 {
		if _, err := s.store.DeleteTree(dn); err != nil {
			return err
		}
	}
	if err := s.StorePolicy(p, meta); err != nil {
		// Clear whatever partially landed, then re-add the snapshot
		// parents-first (Search clones entries, so the snapshot survived
		// the DeleteTree).
		_, _ = s.store.DeleteTree(dn)
		sort.Slice(prev, func(i, j int) bool {
			di := strings.Count(string(prev[i].DN), ",")
			dj := strings.Count(string(prev[j].DN), ",")
			if di != dj {
				return di < dj
			}
			return prev[i].DN < prev[j].DN
		})
		for _, e := range prev {
			_ = s.store.Add(e)
		}
		return err
	}
	return nil
}

// RemovePolicy deletes a stored policy binding and its condition/action
// children.
func (s *Service) RemovePolicy(name string, meta PolicyMeta) error {
	dn := childDN(dnPolicies(), "cn", policyCN(name, meta))
	n, err := s.store.DeleteTree(dn)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("repository: no such policy binding %q", policyCN(name, meta))
	}
	return nil
}

func policyCN(name string, meta PolicyMeta) string {
	cn := name + "@" + meta.Executable
	if meta.UserRole != "" {
		cn += "#" + meta.UserRole
	}
	return cn
}

// PoliciesFor returns the compiled policy specs applicable to a process
// identity: policies bound to the executable whose role binding is either
// empty (any role) or equal to the identity's role. Role-specific
// bindings shadow any-role bindings of the same policy name.
func (s *Service) PoliciesFor(id msg.Identity) ([]msg.PolicySpec, error) {
	f := All(
		Eq("objectClass", "qosPolicy"),
		Eq("qosExecutableRef", id.Executable),
	)
	entries, err := s.store.Search(dnPolicies(), ScopeOne, f)
	if err != nil {
		return nil, err
	}
	chosen := make(map[string]*Entry) // policy name -> best binding
	for _, e := range entries {
		role := e.Get("qosUserRole")
		if role != "" && !strings.EqualFold(role, id.UserRole) {
			continue
		}
		name := strings.SplitN(e.Get("cn"), "@", 2)[0]
		prev, ok := chosen[name]
		if !ok || (prev.Get("qosUserRole") == "" && role != "") {
			chosen[name] = e
		}
	}
	var specs []msg.PolicySpec
	for _, e := range chosen {
		spec, err := s.specFromEntry(e)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	// Deterministic order.
	for i := 0; i < len(specs); i++ {
		for j := i + 1; j < len(specs); j++ {
			if specs[j].Name < specs[i].Name {
				specs[i], specs[j] = specs[j], specs[i]
			}
		}
	}
	return specs, nil
}

// RolePoliciesFor returns only the specs bound specifically to the
// identity's user role — the bindings that shadow or extend the
// any-role view for that role. An identity without a role has none.
// Callers holding a copy of the any-role view (the policy agent's
// delta-maintained cache) overlay these on top of it to reconstruct
// exactly what PoliciesFor would return.
func (s *Service) RolePoliciesFor(id msg.Identity) ([]msg.PolicySpec, error) {
	if id.UserRole == "" {
		return nil, nil
	}
	f := All(
		Eq("objectClass", "qosPolicy"),
		Eq("qosExecutableRef", id.Executable),
	)
	entries, err := s.store.Search(dnPolicies(), ScopeOne, f)
	if err != nil {
		return nil, err
	}
	var specs []msg.PolicySpec
	for _, e := range entries {
		role := e.Get("qosUserRole")
		if role == "" || !strings.EqualFold(role, id.UserRole) {
			continue
		}
		spec, err := s.specFromEntry(e)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}

// specFromEntry reassembles a PolicySpec from the decomposed condition
// and action child entries.
func (s *Service) specFromEntry(e *Entry) (msg.PolicySpec, error) {
	spec := msg.PolicySpec{
		Name:       strings.SplitN(e.Get("cn"), "@", 2)[0],
		Connective: e.Get("qosConnective"),
	}
	children, err := s.store.Search(e.DN, ScopeOne, nil)
	if err != nil {
		return spec, err
	}
	var conds, acts []*Entry
	for _, c := range children {
		switch {
		case c.HasValue("objectClass", "qosCondition"):
			conds = append(conds, c)
		case c.HasValue("objectClass", "qosAction"):
			acts = append(acts, c)
		}
	}
	byIndex := func(list []*Entry) []*Entry {
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				if indexOf(list[j]) < indexOf(list[i]) {
					list[i], list[j] = list[j], list[i]
				}
			}
		}
		return list
	}
	for _, c := range byIndex(conds) {
		v, err := strconv.ParseFloat(c.Get("qosValue"), 64)
		if err != nil {
			return spec, fmt.Errorf("repository: bad qosValue in %s: %w", c.DN, err)
		}
		spec.Conditions = append(spec.Conditions, msg.CondSpec{
			Attribute: c.Get("qosAttribute"),
			Sensor:    c.Get("qosSensorRef"),
			Op:        c.Get("qosOperator"),
			Value:     v,
		})
	}
	for _, a := range byIndex(acts) {
		spec.Actions = append(spec.Actions, msg.ActionSpec{
			Target: a.Get("qosTarget"),
			Op:     a.Get("qosOperation"),
			Args:   a.GetAll("qosArgument"),
		})
	}
	return spec, nil
}

func indexOf(e *Entry) int {
	cn := e.Get("cn")
	if i := strings.LastIndexByte(cn, '-'); i >= 0 {
		if n, err := strconv.Atoi(cn[i+1:]); err == nil {
			return n
		}
	}
	return 0
}

// StoreRuleSet persists a manager rule set (dynamic rule distribution:
// "it is very important to be able to dynamically add or delete rules and
// have this distributed to different management components at run-time").
func (s *Service) StoreRuleSet(name, managerRole, ruleText string) error {
	dn := childDN(dnRuleSets(), "cn", name)
	if err := s.store.EnsureParents(dn); err != nil {
		return err
	}
	e := NewEntry(dn).
		Set("objectClass", "qosRuleSet").
		Set("cn", name).
		Set("qosRuleText", ruleText).
		Set("qosManagerRole", managerRole)
	if err := s.store.Add(e); err != nil {
		// Replace an existing rule set of the same name.
		e2 := NewEntry(dn).
			Set("objectClass", "qosRuleSet").
			Set("cn", name).
			Set("qosRuleText", ruleText).
			Set("qosManagerRole", managerRole)
		return s.store.Modify(e2)
	}
	return nil
}

// NamedRuleSet is one stored rule set with its provenance: the name it
// was stored under, which managers tag onto rule firings so trace
// explanations can report which distributed set produced a decision.
type NamedRuleSet struct {
	Name string
	Text string
}

// NamedRuleSetsFor returns the rule sets bound to a manager role
// ("host-manager", "domain-manager") with their names, sorted by name.
func (s *Service) NamedRuleSetsFor(managerRole string) ([]NamedRuleSet, error) {
	entries, err := s.store.Search(dnRuleSets(), ScopeOne,
		All(Eq("objectClass", "qosRuleSet"), Eq("qosManagerRole", managerRole)))
	if err != nil {
		return nil, err
	}
	out := make([]NamedRuleSet, 0, len(entries))
	for _, e := range entries {
		out = append(out, NamedRuleSet{Name: e.Get("cn"), Text: e.Get("qosRuleText")})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// PolicyBindings lists stored policy binding names (cn values).
func (s *Service) PolicyBindings() ([]string, error) {
	entries, err := s.store.Search(dnPolicies(), ScopeOne, Eq("objectClass", "qosPolicy"))
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Get("cn"))
	}
	return out, nil
}
