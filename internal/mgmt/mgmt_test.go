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
	if err := svc.DefineApplication("VideoApplication", "mpeg_play"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DefineExecutable("mpeg_play", map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}); err != nil {
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

// TestImportLDIF: what one administration stores survives the LDIF
// export and bulk import of policyctl into a fresh directory.
func TestImportLDIF(t *testing.T) {
	admin, dir := newAdmin(t)
	if err := admin.AddRuleSet("base", "host-manager", `(defrule r (violation ?p ?policy) => (call boost-cpu ?p 5))`); err != nil {
		t.Fatal(err)
	}
	entries, err := repository.LocalStore{Dir: dir}.Search(repository.BaseDN, repository.ScopeSub, nil)
	if err != nil {
		t.Fatal(err)
	}
	copied := repository.NewDirectory(repository.QoSSchema())
	n, err := repository.LoadLDIF(copied, strings.NewReader(repository.LDIFString(entries)))
	if err != nil || n != len(entries) {
		t.Fatalf("LoadLDIF: n=%d of %d, err=%v", n, len(entries), err)
	}
	imported := NewAdmin(repository.NewService(repository.LocalStore{Dir: copied}))
	want, _ := admin.NamedRulesFor("host-manager")
	if got, err := imported.NamedRulesFor("host-manager"); err != nil || len(got) != 1 || got[0] != want[0] {
		t.Errorf("imported rule sets = %+v, %v; stored %+v", got, err, want)
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
