package mgmt

import (
	"strings"
	"testing"

	"softqos/internal/repository"
)

const videoPolicy = `
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

func newAdmin(t *testing.T) (*Admin, *repository.Directory) {
	t.Helper()
	dir := repository.NewDirectory(repository.QoSSchema())
	svc := repository.NewService(repository.LocalStore{Dir: dir})
	if err := DefineVideoModel(svc); err != nil {
		t.Fatal(err)
	}
	return NewAdmin(svc), dir
}

func TestAddPolicyStoresAfterChecks(t *testing.T) {
	admin, dir := newAdmin(t)
	err := admin.AddPolicy(videoPolicy, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"})
	if err != nil {
		t.Fatal(err)
	}
	names, err := admin.Browse()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "NotifyQoSViolation@mpeg_play" {
		t.Errorf("bindings = %v", names)
	}
	// Condition children landed in the directory.
	conds := dir.Search("o=qos", repository.ScopeSub, repository.Eq("objectClass", "qosCondition"))
	if len(conds) != 3 {
		t.Errorf("stored %d condition entries, want 3", len(conds))
	}
}

func TestAddPolicyRejectsBadSensorCoverage(t *testing.T) {
	admin, _ := newAdmin(t)
	bad := strings.Replace(videoPolicy, "jitter_rate < 1.25", "cpu_temp < 70", 1)
	err := admin.AddPolicy(bad, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"})
	if err == nil || !strings.Contains(err.Error(), "cpu_temp") {
		t.Fatalf("policy with unmonitored attribute stored: %v", err)
	}
	names, _ := admin.Browse()
	if len(names) != 0 {
		t.Errorf("rejected policy appears in bindings: %v", names)
	}
}

func TestAddPolicyRejectsParseError(t *testing.T) {
	admin, _ := newAdmin(t)
	if err := admin.AddPolicy("not a policy", repository.PolicyMeta{Executable: "mpeg_play"}); err == nil {
		t.Fatal("garbage policy accepted")
	}
}

func TestParseAndCheckReportsAllProblems(t *testing.T) {
	admin, _ := newAdmin(t)
	bad := strings.Replace(videoPolicy,
		"(...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);",
		"(...)/QoSHostManager->notify();", 1)
	p, errs := admin.ParseAndCheck(bad, "mpeg_play")
	if p == nil {
		t.Fatal("parse failed unexpectedly")
	}
	if len(errs) == 0 {
		t.Fatal("empty notify passed integrity checks")
	}
}

func TestRemovePolicy(t *testing.T) {
	admin, _ := newAdmin(t)
	meta := repository.PolicyMeta{Application: "VideoApplication", Executable: "mpeg_play"}
	if err := admin.AddPolicy(videoPolicy, meta); err != nil {
		t.Fatal(err)
	}
	if err := admin.RemovePolicy("NotifyQoSViolation", meta); err != nil {
		t.Fatal(err)
	}
	names, _ := admin.Browse()
	if len(names) != 0 {
		t.Errorf("bindings after removal: %v", names)
	}
}

// TestImportLDIF: what one administration stores is in the LDIF export
// policyctl writes — the upload an LDAP directory imports — as one
// record per entry, the rule text among the values.
func TestImportLDIF(t *testing.T) {
	admin, dir := newAdmin(t)
	const text = `(defrule r (violation ?p ?policy) => (call boost-cpu ?p 5))`
	if err := admin.AddRuleSet("base", "host-manager", text); err != nil {
		t.Fatal(err)
	}
	entries, err := repository.LocalStore{Dir: dir}.Search(repository.BaseDN, repository.ScopeSub, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := repository.WriteLDIF(&out, entries); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\ndn: ") + 1; n != len(entries) {
		t.Errorf("export holds %d records, want %d", n, len(entries))
	}
	if !strings.Contains(out.String(), ": "+text+"\n") {
		t.Errorf("export lacks the rule text:\n%s", out.String())
	}
}

func TestCheckPolicyUnknownExecutable(t *testing.T) {
	admin, _ := newAdmin(t)
	p, errs := admin.ParseAndCheck(videoPolicy, "ghost")
	if p == nil {
		t.Fatal("parse failed")
	}
	if len(errs) == 0 {
		t.Fatal("unknown executable passed checks")
	}
}

func TestRuleSetAdministration(t *testing.T) {
	admin, _ := newAdmin(t)
	good := `(defrule r (violation ?p ?policy) => (call boost-cpu ?p 5))`
	if err := admin.AddRuleSet("base", "host-manager", good); err != nil {
		t.Fatal(err)
	}
	if err := admin.AddRuleSet("broken", "host-manager", "(defrule oops"); err == nil {
		t.Fatal("unparseable rule set stored")
	}
	named, err := admin.NamedRulesFor("host-manager")
	if err != nil {
		t.Fatal(err)
	}
	if len(named) != 1 || named[0].Name != "base" || !strings.Contains(named[0].Text, "boost-cpu") {
		t.Errorf("distributed rules = %+v", named)
	}
	if named, _ := admin.NamedRulesFor("domain-manager"); len(named) != 0 {
		t.Errorf("unexpected domain rules %+v", named)
	}
}
