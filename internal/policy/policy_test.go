package policy

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"softqos/internal/instrument"
	"softqos/internal/msg"
)

// example1 is the paper's Example 1 policy, verbatim in spirit.
const example1 = `
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

var example1Sensors = map[string]string{
	"frame_rate":  "fps_sensor",
	"jitter_rate": "jitter_sensor",
	"buffer_size": "buffer_sensor",
}

func parseExample1(t *testing.T) *Policy {
	t.Helper()
	p, err := ParseOne(example1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseExample1Structure(t *testing.T) {
	p := parseExample1(t)
	if p.Name != "NotifyQoSViolation" {
		t.Errorf("name = %q", p.Name)
	}
	if !p.Subject.Context || p.Subject.Base() != "qosl_coordinator" {
		t.Errorf("subject = %v", p.Subject)
	}
	if len(p.Targets) != 4 || p.Targets[3].Base() != "QoSHostManager" {
		t.Errorf("targets = %v", p.Targets)
	}
	if len(p.Do) != 4 {
		t.Fatalf("do-actions = %d, want 4", len(p.Do))
	}
	last := p.Do[3]
	if last.Op != "notify" || len(last.Args) != 3 {
		t.Errorf("final action = %v", last)
	}
	not, ok := p.On.(Not)
	if !ok {
		t.Fatalf("on-clause is %T, want Not", p.On)
	}
	and, ok := not.E.(And)
	if !ok || len(and.Exprs) != 2 {
		t.Fatalf("requirement is %T (%v)", not.E, not.E)
	}
	fr := and.Exprs[0].(Comparison)
	if fr.Attr != "frame_rate" || !fr.HasTol || fr.TolPlus != 2 || fr.TolMinus != 2 || fr.Value != 25 {
		t.Errorf("frame_rate comparison = %+v", fr)
	}
}

func TestCompileExample1MatchesPaperExample3(t *testing.T) {
	p := parseExample1(t)
	spec, err := Compile(p, example1Sensors)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Connective != "and" {
		t.Errorf("connective = %q", spec.Connective)
	}
	// Example 3: frame_rate > 23, frame_rate < 27, jitter_rate < 1.25.
	want := []struct {
		attr, op string
		val      float64
	}{
		{"frame_rate", ">", 23},
		{"frame_rate", "<", 27},
		{"jitter_rate", "<", 1.25},
	}
	if len(spec.Conditions) != len(want) {
		t.Fatalf("conditions = %v", spec.Conditions)
	}
	for i, w := range want {
		c := spec.Conditions[i]
		if c.Attribute != w.attr || c.Op != w.op || c.Value != w.val {
			t.Errorf("condition %d = %+v, want %+v", i, c, w)
		}
		if c.Sensor != example1Sensors[w.attr] {
			t.Errorf("condition %d sensor = %q", i, c.Sensor)
		}
	}
	if len(spec.Actions) != 4 || spec.Actions[3].Op != "notify" {
		t.Errorf("actions = %v", spec.Actions)
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	p := parseExample1(t)
	p2, err := ParseOne(p.String())
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, p.String())
	}
	if p2.String() != p.String() {
		t.Errorf("round trip diverged:\n%s\nvs\n%s", p.String(), p2.String())
	}
}

func TestParseMultiplePolicies(t *testing.T) {
	src := example1 + `
oblig CheckThroughput {
  subject (...)/WebApp/qosl_coordinator
  target  rate_sensor, (...)/QoSHostManager
  on      not (request_rate >= 100)
  do      rate_sensor->read(out request_rate);
          (...)/QoSHostManager->notify(request_rate);
}
`
	ps, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[1].Name != "CheckThroughput" {
		t.Fatalf("parsed %d policies", len(ps))
	}
}

func TestDisjunctiveRequirement(t *testing.T) {
	src := `
oblig EitherWay {
  subject (...)/A/qosl_coordinator
  target  s1, (...)/QoSHostManager
  on      not (x < 5 or y < 9)
  do      s1->read(out x);
          (...)/QoSHostManager->notify(x);
}
`
	p, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Compile(p, map[string]string{"x": "s1", "y": "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Connective != "or" || len(spec.Conditions) != 2 {
		t.Errorf("spec = %+v", spec)
	}
}

func TestCompileRejectsMixedConnectives(t *testing.T) {
	src := `
oblig Mixed {
  subject (...)/A/qosl_coordinator
  target  s1
  on      not (x < 5 and (y < 9 or z > 1))
  do      s1->read(out x);
}
`
	p, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p, map[string]string{"x": "s1", "y": "s1", "z": "s1"}); err == nil {
		t.Fatal("mixed connectives compiled")
	}
}

func TestCompileRejectsMissingSensor(t *testing.T) {
	p := parseExample1(t)
	if _, err := Compile(p, map[string]string{"frame_rate": "fps_sensor"}); err == nil {
		t.Fatal("compile without jitter sensor succeeded")
	}
}

func TestRequirementShapeErrors(t *testing.T) {
	src := `
oblig NoNot {
  subject (...)/A/qosl_coordinator
  target  s1
  on      x < 5
  do      s1->read(out x);
}
`
	p, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Requirement(); err == nil {
		t.Fatal("Requirement accepted an on-clause without not(...)")
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"empty":             ``,
		"missing brace":     `oblig X subject a target b on not (x<1) do a->b();`,
		"bad op":            `oblig X { subject a target b on not (x ~ 1) do s->r(); }`,
		"tolerance non-eq":  `oblig X { subject a target b on not (x < 1(+2)(-2)) do s->r(); }`,
		"no actions":        `oblig X { subject a target b on not (x < 1) do }`,
		"unterminated str":  `oblig X { subject a target b on not (x < 1) do s->r("q); }`,
		"stray chars":       `oblig X { subject a target b on not (x < 1) do s->r(); } trailing`,
		"missing subject":   `oblig X { target b on not (x<1) do s->r(); }`,
		"bad not-eq lexeme": `oblig X { subject a target b on not (x ! 1) do s->r(); }`,
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

// compiledOutcome runs p the way production does: Compile lowers it to a
// msg.PolicySpec, a coordinator installs it into value sensors (one per
// attribute in sensorFor), and each reading is fed to its sensor. An
// attribute absent from readings is never read. It reports whether the
// coordinator's evaluation of the compiled spec notified the manager,
// and whether it classified the notification as an overshoot.
func compiledOutcome(t *testing.T, p *Policy, sensorFor map[string]string, readings map[string]float64) (notified, overshoot bool) {
	t.Helper()
	spec, err := Compile(p, sensorFor)
	if err != nil {
		t.Fatal(err)
	}
	var sent []msg.Message
	c := instrument.NewCoordinator(msg.Identity{Host: "h1", PID: 42, Executable: "mpeg_play"},
		func() time.Duration { return time.Second },
		func(_ string, m msg.Message) error { sent = append(sent, m); return nil },
		"/agent", "/h1/QoSHostManager")
	sensors := map[string]*instrument.ValueSensor{}
	for attr, id := range sensorFor {
		sensors[attr] = instrument.NewValueSensor(id, attr, nil)
		c.AddSensor(sensors[attr])
	}
	if err := c.InstallPolicies([]msg.PolicySpec{spec}); err != nil {
		t.Fatal(err)
	}
	for attr, v := range readings {
		sensors[attr].Set(v)
	}
	for _, m := range sent {
		if v, ok := m.Body.(msg.Violation); ok {
			return true, v.Overshoot
		}
	}
	return false, false
}

func TestEvaluateRequirement(t *testing.T) {
	p := parseExample1(t)
	cases := []struct {
		fps, jit  float64
		ok        bool
		overshoot bool
	}{
		{25, 1.0, true, false},
		{23.5, 1.0, true, false},
		{23, 1.0, false, false}, // strict: exactly 23 violates (Example 3: > 23)
		{27, 1.0, false, true},  // strict upper bound of the band: an overshoot
		{26.9, 1.24, true, false},
		{25, 1.25, false, false},
		{14, 0.5, false, false},
	}
	for _, c := range cases {
		notified, overshoot := compiledOutcome(t, p, example1Sensors,
			map[string]float64{"frame_rate": c.fps, "jitter_rate": c.jit})
		if notified == c.ok || overshoot != c.overshoot {
			t.Errorf("fps=%v jitter=%v: notified=%v overshoot=%v, want requirement held=%v overshoot=%v",
				c.fps, c.jit, notified, overshoot, c.ok, c.overshoot)
		}
	}
}

// TestEvaluateMissingReading: a condition whose attribute was never read
// is assumed satisfied (the optimistic initial allocation), so a missing
// reading alone never raises a violation, and a present one still does.
func TestEvaluateMissingReading(t *testing.T) {
	p := parseExample1(t)
	if notified, _ := compiledOutcome(t, p, example1Sensors, map[string]float64{"frame_rate": 25}); notified {
		t.Error("a missing jitter reading raised a violation")
	}
	if notified, _ := compiledOutcome(t, p, example1Sensors, map[string]float64{"frame_rate": 14}); !notified {
		t.Error("a violating frame rate went unreported while jitter was unread")
	}
}

func TestValidateAcceptsExample1(t *testing.T) {
	p := parseExample1(t)
	errs := Validate(p, ValidateOptions{
		SensorAttrs: map[string][]string{
			"fps_sensor":    {"frame_rate"},
			"jitter_sensor": {"jitter_rate"},
			"buffer_sensor": {"buffer_size"},
		},
		ManagerNames: []string{"QoSHostManager"},
	})
	if len(errs) != 0 {
		t.Fatalf("validation errors: %v", errs)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	p := parseExample1(t)
	// Missing jitter sensor, notify carries an attribute never read, and
	// an unknown action target.
	errs := Validate(p, ValidateOptions{
		SensorAttrs: map[string][]string{
			"fps_sensor":    {"frame_rate"},
			"buffer_sensor": {"buffer_size"},
		},
		ManagerNames: []string{"QoSHostManager"},
	})
	joined := ""
	for _, e := range errs {
		joined += e.Error() + "\n"
	}
	if !strings.Contains(joined, `attribute "jitter_rate" has no monitoring sensor`) {
		t.Errorf("missing-sensor error absent in:\n%s", joined)
	}
	if !strings.Contains(joined, "jitter_sensor") {
		t.Errorf("unknown-target error absent in:\n%s", joined)
	}
	if !strings.Contains(joined, `"jitter_rate" is not produced`) {
		t.Errorf("unproduced-notify-arg error absent in:\n%s", joined)
	}
}

func TestValidateEmptyNotify(t *testing.T) {
	src := `
oblig X {
  subject (...)/A/qosl_coordinator
  target  s, (...)/QoSHostManager
  on      not (x < 5)
  do      (...)/QoSHostManager->notify();
}
`
	p, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	errs := Validate(p, ValidateOptions{
		SensorAttrs:  map[string][]string{"s": {"x"}},
		ManagerNames: []string{"QoSHostManager"},
	})
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "no data") {
			found = true
		}
	}
	if !found {
		t.Errorf("empty notify not flagged: %v", errs)
	}
}

// Property: for any tolerance band, the expanded pair of comparisons
// accepts exactly the open interval (v-minus, v+plus).
func TestPropertyToleranceExpansion(t *testing.T) {
	prop := func(center float64, plus, minus uint8, probe float64) bool {
		c := Comparison{Attr: "x", Op: "=", Value: center, HasTol: true,
			TolPlus: float64(plus), TolMinus: float64(minus)}
		if len(expand(c)) != 2 {
			return false
		}
		p := &Policy{Name: "Band", On: Not{E: c}, Do: []Action{
			{Target: Path{Segments: []string{"s"}}, Op: "read", Args: []Arg{{Out: true, Name: "x"}}},
			{Target: Path{Segments: []string{"QoSHostManager"}}, Op: "notify", Args: []Arg{{Name: "x"}}},
		}}
		inBand := probe > center-float64(minus) && probe < center+float64(plus)
		notified, _ := compiledOutcome(t, p, map[string]string{"x": "s"}, map[string]float64{"x": probe})
		return notified != inBand
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLexerTolerates(t *testing.T) {
	// Comments, both styles; context token glued to ident.
	src := `
# hash comment
// slash comment
oblig C {
  subject (...)VideoApplication/qosl_coordinator
  target  (...)QoSHostManager
  on      not (a = 10(+1)(-1))
  do      (...)QoSHostManager->notify(42, "str");
}
`
	p, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Subject.Base() != "qosl_coordinator" || !p.Subject.Context {
		t.Errorf("subject = %v", p.Subject)
	}
	if *p.Do[0].Args[0].Num != 42 || *p.Do[0].Args[1].Str != "str" {
		t.Errorf("args = %v", p.Do[0].Args)
	}
}
