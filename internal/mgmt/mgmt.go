// Package mgmt implements the management applications of Section 6.2: a
// policy administration facade that validates policies against the
// deployment information (the integrity checks the prototype performed),
// stores them in the repository, together with manager rule sets. LDIF
// export and bulk import are repository.WriteLDIF and repository.LoadLDIF.
package mgmt

import (
	"fmt"
	"strings"

	"softqos/internal/policy"
	"softqos/internal/repository"
	"softqos/internal/rules"
)

// ManagerNames are the action targets accepted as manager notifications
// in policy do-clauses.
var ManagerNames = []string{"QoSHostManager", "QoSDomainManager"}

// Admin is the policy administration application.
type Admin struct {
	svc *repository.Service
}

// NewAdmin wraps a repository service.
func NewAdmin(svc *repository.Service) *Admin { return &Admin{svc: svc} }

// Service returns the underlying repository service.
func (a *Admin) Service() *repository.Service { return a.svc }

// CheckPolicy runs the integrity checks for a policy against an
// executable's deployed sensors: the policy's attributes must be
// monitored by sensors present in the executable, and its actions must be
// sensor invocations or non-empty manager notifications based on sensor
// data.
func (a *Admin) CheckPolicy(p *policy.Policy, executable string) []error {
	sensors, err := a.svc.SensorsFor(executable)
	if err != nil {
		return []error{err}
	}
	return policy.Validate(p, policy.ValidateOptions{
		SensorAttrs:  sensors,
		ManagerNames: ManagerNames,
	})
}

// AddPolicy validates and stores one policy binding. Validation failures
// abort the store.
func (a *Admin) AddPolicy(src string, meta repository.PolicyMeta) error {
	p, err := policy.ParseOne(src)
	if err != nil {
		return err
	}
	if errs := a.CheckPolicy(p, meta.Executable); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return fmt.Errorf("mgmt: policy %s failed integrity checks:\n  %s",
			p.Name, strings.Join(msgs, "\n  "))
	}
	return a.svc.StorePolicy(p, meta)
}

// RemovePolicy removes a policy binding.
func (a *Admin) RemovePolicy(name string, meta repository.PolicyMeta) error {
	return a.svc.RemovePolicy(name, meta)
}

// Browse lists the stored policy bindings.
func (a *Admin) Browse() ([]string, error) { return a.svc.PolicyBindings() }

// ParseAndCheck parses policy source and reports problems without
// storing — the interactive pre-flight of the administration UI.
func (a *Admin) ParseAndCheck(src, executable string) (*policy.Policy, []error) {
	p, err := policy.ParseOne(src)
	if err != nil {
		return nil, []error{err}
	}
	return p, a.CheckPolicy(p, executable)
}

// AddRuleSet validates manager rule text (it must parse in the CLIPS-like
// DSL) and stores it under the given name for the given manager role
// ("host-manager" or "domain-manager") — the dynamic rule distribution of
// Section 6: rules change at run time without recompilation.
func (a *Admin) AddRuleSet(name, managerRole, text string) error {
	if _, _, err := rules.ParseRules(text); err != nil {
		return fmt.Errorf("mgmt: rule set %s failed validation: %w", name, err)
	}
	return a.svc.StoreRuleSet(name, managerRole, text)
}

// NamedRulesFor returns the stored rule sets for a manager role with
// their names, sorted by name. A loader that keeps provenance compiles
// each under its name (rules.Compile), so trace explanations report which
// stored set produced each firing.
func (a *Admin) NamedRulesFor(managerRole string) ([]repository.NamedRuleSet, error) {
	return a.svc.NamedRuleSetsFor(managerRole)
}
