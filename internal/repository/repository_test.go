package repository

import (
	"strings"
	"testing"
	"testing/quick"

	"softqos/internal/msg"
	"softqos/internal/policy"
)

func TestDNNormalizeAndNavigation(t *testing.T) {
	d := DN(" CN=Foo , ou=Policies, o=qos ")
	if d.Normalize() != "cn=Foo,ou=Policies,o=qos" {
		t.Errorf("Normalize = %q", d.Normalize())
	}
	if d.Parent() != "ou=Policies,o=qos" {
		t.Errorf("Parent = %q", d.Parent())
	}
	if d.RDN() != "cn=Foo" {
		t.Errorf("RDN = %q", d.RDN())
	}
	if !d.IsDescendantOf("o=qos") {
		t.Error("descendant check failed")
	}
	if d.IsDescendantOf(d) {
		t.Error("entry is not its own descendant")
	}
}

func TestEntryAttributeOps(t *testing.T) {
	e := NewEntry("cn=x,o=qos")
	e.Add("ObjectClass", "qosSensor")
	e.Add("qosAttribute", "frame_rate", "jitter_rate")
	if e.Get("objectclass") != "qosSensor" {
		t.Error("case-insensitive get failed")
	}
	if !e.HasValue("qosattribute", "FRAME_RATE") {
		t.Error("HasValue should be case-insensitive")
	}
	e.Set("qosAttribute", "only")
	if got := e.GetAll("qosAttribute"); len(got) != 1 || got[0] != "only" {
		t.Errorf("after Set: %v", got)
	}
	e.Delete("qosAttribute")
	if e.Has("qosAttribute") {
		t.Error("Delete failed")
	}
	c := e.Clone()
	c.Add("objectclass", "extra")
	if len(e.GetAll("objectclass")) != 1 {
		t.Error("Clone shares attribute storage")
	}
}

func TestDirectoryAddRequiresParent(t *testing.T) {
	d := NewDirectory(nil)
	err := d.Add(NewEntry("cn=p,ou=policies,o=qos").Set("objectClass", "qosPolicy"))
	if err == nil {
		t.Fatal("add without parent succeeded")
	}
	if err := d.EnsureParents("cn=p,ou=policies,o=qos"); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(NewEntry("cn=p,ou=policies,o=qos").Set("objectClass", "qosPolicy")); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 { // o=qos, ou=policies, cn=p
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if err := d.Add(NewEntry("cn=p,ou=policies,o=qos")); err == nil {
		t.Error("duplicate add succeeded")
	}
}

func TestDirectoryDeleteRules(t *testing.T) {
	d := NewDirectory(nil)
	_ = d.EnsureParents("cn=p,ou=policies,o=qos")
	_ = d.Add(NewEntry("cn=p,ou=policies,o=qos"))
	if err := d.Delete("ou=policies,o=qos"); err == nil {
		t.Error("deleted entry with children")
	}
	if err := d.Delete("cn=p,ou=policies,o=qos"); err != nil {
		t.Error(err)
	}
	if err := d.Delete("cn=p,ou=policies,o=qos"); err == nil {
		t.Error("double delete succeeded")
	}
	n := d.DeleteTree("o=qos")
	if n != 2 || d.Len() != 0 {
		t.Errorf("DeleteTree removed %d, %d left", n, d.Len())
	}
}

func TestSearchScopes(t *testing.T) {
	d := NewDirectory(nil)
	_ = d.EnsureParents("cn=a,ou=x,o=qos")
	_ = d.Add(NewEntry("cn=a,ou=x,o=qos").Set("kind", "leaf"))
	_ = d.Add(NewEntry("cn=b,ou=x,o=qos").Set("kind", "leaf"))
	_ = d.EnsureParents("cn=c,ou=y,o=qos")
	_ = d.Add(NewEntry("cn=c,ou=y,o=qos").Set("kind", "leaf"))

	if got := d.Search("ou=x,o=qos", ScopeBase, nil); len(got) != 1 {
		t.Errorf("base scope: %d entries", len(got))
	}
	if got := d.Search("ou=x,o=qos", ScopeOne, nil); len(got) != 2 {
		t.Errorf("one scope: %d entries", len(got))
	}
	if got := d.Search("o=qos", ScopeSub, Eq("kind", "leaf")); len(got) != 3 {
		t.Errorf("sub scope with filter: %d entries", len(got))
	}
	// Deterministic order.
	got := d.Search("o=qos", ScopeSub, Eq("kind", "leaf"))
	if got[0].DN > got[1].DN || got[1].DN > got[2].DN {
		t.Error("search results not sorted")
	}
}

func TestFilterParseAndMatch(t *testing.T) {
	e := NewEntry("cn=p,o=qos").
		Set("objectClass", "qosPolicy").
		Set("qosExecutableRef", "mpeg_play").
		Set("qosValue", "25")

	cases := []struct {
		filter string
		want   bool
	}{
		{"(objectClass=qosPolicy)", true},
		{"(objectClass=QOSPOLICY)", true}, // case-insensitive values
		{"(objectClass=other)", false},
		{"(&(objectClass=qosPolicy)(qosExecutableRef=mpeg_play))", true},
		{"(&(objectClass=qosPolicy)(qosExecutableRef=nope))", false},
		{"(|(qosExecutableRef=nope)(qosExecutableRef=mpeg_play))", true},
		{"(!(objectClass=other))", true},
		{"(qosUserRole=*)", false},
		{"(qosExecutableRef=*)", true},
		{"(qosExecutableRef=mpeg*)", true},
		{"(qosExecutableRef=*play)", true},
		{"(qosExecutableRef=m*g*y)", true},
		{"(qosExecutableRef=x*)", false},
		{"(qosValue>=20)", true},
		{"(qosValue>=30)", false},
		{"(qosValue<=25)", true},
	}
	for _, c := range cases {
		f, err := ParseFilter(c.filter)
		if err != nil {
			t.Fatalf("%s: %v", c.filter, err)
		}
		if got := f.Matches(e); got != c.want {
			t.Errorf("%s = %v, want %v", c.filter, got, c.want)
		}
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"(&(objectclass=qosPolicy)(!(qosuserrole=*))(|(a=1)(b>=2)))",
		"(cn=NotifyQoSViolation)",
	} {
		f, err := ParseFilter(s)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := ParseFilter(f.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", f.String(), err)
		}
		if f2.String() != f.String() {
			t.Errorf("round trip: %q vs %q", f.String(), f2.String())
		}
	}
}

func TestFilterParseErrors(t *testing.T) {
	for _, bad := range []string{"", "cn=x", "(cn=x", "(&)", "(!)", "(&(cn=x)) trailing", "(=x)"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) succeeded", bad)
		}
	}
}

func TestSchemaChecks(t *testing.T) {
	s := QoSSchema()
	ok := NewEntry("cn=s1,o=qos").
		Set("objectClass", "qosSensor").
		Set("cn", "s1").
		Set("qosAttribute", "frame_rate")
	if err := s.Check(ok); err != nil {
		t.Errorf("valid sensor rejected: %v", err)
	}
	missing := NewEntry("cn=s2,o=qos").Set("objectClass", "qosSensor").Set("cn", "s2")
	if err := s.Check(missing); err == nil {
		t.Error("sensor without qosAttribute accepted")
	}
	unknown := NewEntry("cn=s3,o=qos").Set("objectClass", "noSuchClass").Set("cn", "s3")
	if err := s.Check(unknown); err == nil {
		t.Error("unknown class accepted")
	}
	extra := ok.Clone().Set("color", "red")
	if err := s.Check(extra); err == nil {
		t.Error("undeclared attribute accepted")
	}
	none := NewEntry("cn=s4,o=qos").Set("cn", "s4")
	if err := s.Check(none); err == nil {
		t.Error("entry without objectClass accepted")
	}
}

const sampleLDIF = `# sample policy upload
dn: o=qos
objectClass: organization
o: qos

dn: ou=policies,o=qos
objectClass: organizationalUnit
ou: policies

dn: cn=NotifyQoSViolation,ou=policies,o=qos
objectClass: qosPolicy
cn: NotifyQoSViolation
qosSubject: (...)/VideoApplication/qosl_coordinator
qosConnective: and
qosPolicyText:: b2JsaWcgTm90aWZ5UW9TVmlvbGF0aW9u
description: video playback
 QoS policy
`

// TestLDIFRoundTrip: WriteLDIF's export of the sample's entries (one
// needs base64, one was folded) reads back to the same entries.
func TestLDIFRoundTrip(t *testing.T) {
	entries, err := readLDIF(sampleLDIF)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[2].Get("qosPolicyText") != "oblig NotifyQoSViolation" ||
		entries[2].Get("description") != "video playbackQoS policy" {
		t.Fatalf("sample read as %v", entries)
	}
	out := ldifString(entries)
	if !strings.Contains(out, "qospolicytext: oblig NotifyQoSViolation\n") {
		t.Errorf("export base64-encoded a plain value:\n%s", out)
	}
	back, err := readLDIF(out)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if len(back) != len(entries) {
		t.Fatalf("round trip %d vs %d entries", len(back), len(entries))
	}
	for i := range back {
		if back[i].String() != entries[i].String() {
			t.Errorf("entry %d diverged:\n%s\nvs\n%s", i, back[i], entries[i])
		}
	}
}

// Property: wildcardMatch("*"+s+"*", x) is true iff s is a substring of x.
func TestPropertyWildcardSubstring(t *testing.T) {
	prop := func(s, x string) bool {
		s = strings.ToLower(strings.ReplaceAll(s, "*", ""))
		x = strings.ToLower(strings.ReplaceAll(x, "*", ""))
		return wildcardMatch("*"+s+"*", x) == strings.Contains(x, s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// newTestService builds a Service over a fresh schema-checked directory
// with the video application model defined.
func newTestService(t *testing.T, store Store) *Service {
	t.Helper()
	svc := NewService(store)
	if err := svc.DefineApplication("VideoApplication", "mpeg_play", "mpeg_serve"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DefineExecutable("mpeg_play", map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := svc.DefineRole("physician"); err != nil {
		t.Fatal(err)
	}
	return svc
}

const example1Src = `
oblig NotifyQoSViolation {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.25)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`

func storeExample1(t *testing.T, svc *Service, role string) {
	t.Helper()
	p, err := policy.ParseOne(example1Src)
	if err != nil {
		t.Fatal(err)
	}
	err = svc.StorePolicy(p, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play", UserRole: role})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServiceStoreAndRetrievePolicy(t *testing.T) {
	dir := NewDirectory(QoSSchema())
	svc := newTestService(t, LocalStore{dir})
	storeExample1(t, svc, "")

	id := msg.Identity{Executable: "mpeg_play", Application: "VideoApplication", UserRole: "student"}
	specs, err := svc.PoliciesFor(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("got %d specs", len(specs))
	}
	spec := specs[0]
	if spec.Name != "NotifyQoSViolation" || spec.Connective != "and" {
		t.Errorf("spec header = %+v", spec)
	}
	if len(spec.Conditions) != 3 {
		t.Fatalf("conditions = %v", spec.Conditions)
	}
	if spec.Conditions[0].Attribute != "frame_rate" || spec.Conditions[0].Op != ">" || spec.Conditions[0].Value != 23 {
		t.Errorf("condition 0 = %+v", spec.Conditions[0])
	}
	if spec.Conditions[0].Sensor != "fps_sensor" {
		t.Errorf("condition 0 sensor = %q", spec.Conditions[0].Sensor)
	}
	if len(spec.Actions) != 4 || spec.Actions[3].Op != "notify" || len(spec.Actions[3].Args) != 3 {
		t.Errorf("actions = %v", spec.Actions)
	}
}

func TestServiceRoleSpecificPolicyShadowsGeneric(t *testing.T) {
	dir := NewDirectory(QoSSchema())
	svc := newTestService(t, LocalStore{dir})
	storeExample1(t, svc, "")

	// A physician-specific variant demands a tighter frame rate.
	src := strings.Replace(example1Src, "25(+2)(-2)", "29(+1)(-1)", 1)
	p, err := policy.ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.StorePolicy(p, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play", UserRole: "physician"}); err != nil {
		t.Fatal(err)
	}

	phys, err := svc.PoliciesFor(msg.Identity{Executable: "mpeg_play", UserRole: "physician"})
	if err != nil {
		t.Fatal(err)
	}
	if len(phys) != 1 || phys[0].Conditions[0].Value != 28 {
		t.Errorf("physician spec = %+v", phys)
	}
	student, err := svc.PoliciesFor(msg.Identity{Executable: "mpeg_play", UserRole: "student"})
	if err != nil {
		t.Fatal(err)
	}
	if len(student) != 1 || student[0].Conditions[0].Value != 23 {
		t.Errorf("student spec = %+v", student)
	}
}

func TestServiceRemovePolicy(t *testing.T) {
	dir := NewDirectory(QoSSchema())
	svc := newTestService(t, LocalStore{dir})
	storeExample1(t, svc, "")
	if err := svc.RemovePolicy("NotifyQoSViolation", PolicyMeta{Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	specs, err := svc.PoliciesFor(msg.Identity{Executable: "mpeg_play"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 0 {
		t.Errorf("%d specs after removal", len(specs))
	}
	if err := svc.RemovePolicy("NotifyQoSViolation", PolicyMeta{Executable: "mpeg_play"}); err == nil {
		t.Error("double remove succeeded")
	}
}

func TestServiceUnknownExecutable(t *testing.T) {
	dir := NewDirectory(QoSSchema())
	svc := NewService(LocalStore{dir})
	if _, err := svc.SensorsFor("ghost"); err == nil {
		t.Error("SensorsFor(ghost) succeeded")
	}
	p, err := policy.ParseOne(example1Src)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.StorePolicy(p, PolicyMeta{Executable: "ghost"}); err == nil {
		t.Error("StorePolicy for unknown executable succeeded")
	}
}

func TestServiceRuleSets(t *testing.T) {
	dir := NewDirectory(QoSSchema())
	svc := NewService(LocalStore{dir})
	if err := svc.StoreRuleSet("base", "host-manager", "(defrule a (x) => (assert (y)))"); err != nil {
		t.Fatal(err)
	}
	if err := svc.StoreRuleSet("base", "host-manager", "(defrule b (x) => (assert (z)))"); err != nil {
		t.Fatal(err) // replace
	}
	got, err := svc.NamedRuleSetsFor("host-manager")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "base" || !strings.Contains(got[0].Text, "defrule b") {
		t.Errorf("rule sets = %+v", got)
	}
	none, err := svc.NamedRuleSetsFor("domain-manager")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("unexpected domain rule sets: %v", none)
	}

	// Named access keeps provenance and sorts by name.
	if err := svc.StoreRuleSet("aaa-extra", "host-manager", "(defrule c (x) => (assert (w)))"); err != nil {
		t.Fatal(err)
	}
	named, err := svc.NamedRuleSetsFor("host-manager")
	if err != nil {
		t.Fatal(err)
	}
	if len(named) != 2 || named[0].Name != "aaa-extra" || named[1].Name != "base" {
		t.Fatalf("named rule sets = %+v", named)
	}
	if !strings.Contains(named[1].Text, "defrule b") {
		t.Errorf("named text lost: %+v", named[1])
	}
}

func TestServiceOverTCP(t *testing.T) {
	dir := NewDirectory(QoSSchema())
	srv, err := ServeDirectory(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialDirectory(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	svc := newTestService(t, client)
	storeExample1(t, svc, "")
	specs, err := svc.PoliciesFor(msg.Identity{Executable: "mpeg_play"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || len(specs[0].Conditions) != 3 {
		t.Fatalf("remote specs = %+v", specs)
	}
	// Errors cross the wire too.
	if err := client.Delete("cn=ghost,o=qos"); err == nil {
		t.Error("remote delete of missing entry succeeded")
	}
	// And the data is visible locally.
	if dir.Get("cn=NotifyQoSViolation@mpeg_play,ou=policies,o=qos") == nil {
		t.Error("entry added via TCP not present in directory")
	}
}

// Property: DN normalization is idempotent and navigation is consistent:
// Parent strictly shortens, and every entry is a descendant of each of
// its ancestors.
func TestPropertyDNNormalization(t *testing.T) {
	prop := func(parts []string) bool {
		var comps []string
		for _, p := range parts {
			p = strings.Map(func(r rune) rune {
				if r == ',' || r == '=' || r == '\n' {
					return -1
				}
				return r
			}, p)
			if strings.TrimSpace(p) == "" {
				continue
			}
			comps = append(comps, "cn="+p)
			if len(comps) == 4 {
				break
			}
		}
		if len(comps) == 0 {
			return true
		}
		dn := DN(strings.Join(comps, ","))
		n := dn.Normalize()
		if n.Normalize() != n {
			return false
		}
		for p := n.Parent(); p != ""; p = p.Parent() {
			if !n.IsDescendantOf(p) {
				return false
			}
			if len(p) >= len(n) {
				return false
			}
			n2 := p
			if n2.Normalize() != n2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
