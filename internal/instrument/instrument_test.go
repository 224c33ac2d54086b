package instrument

import (
	"testing"
	"time"

	"softqos/internal/msg"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) clock() Clock            { return func() time.Duration { return f.now } }
func (f *fakeClock) advance(d time.Duration) { f.now += d }

func TestRateSensorMeasuresRate(t *testing.T) {
	fc := &fakeClock{}
	s := NewRateSensor("fps_sensor", "frame_rate", fc.clock(), time.Second)
	// 30 evenly spaced events per second for 5 seconds.
	for i := 0; i < 150; i++ {
		s.Tick()
		fc.advance(time.Second / 30)
	}
	got := s.Read()
	if got < 28 || got > 31 {
		t.Errorf("rate = %.2f, want ~30", got)
	}
}

func TestRateSensorTracksSlowdown(t *testing.T) {
	fc := &fakeClock{}
	s := NewRateSensor("fps", "frame_rate", fc.clock(), time.Second)
	for i := 0; i < 90; i++ { // 3s at 30/s
		s.Tick()
		fc.advance(time.Second / 30)
	}
	for i := 0; i < 50; i++ { // 10s at 5/s
		s.Tick()
		fc.advance(time.Second / 5)
	}
	if got := s.Read(); got > 8 {
		t.Errorf("rate after slowdown = %.2f, want ~5", got)
	}
}

func TestRateSensorEmptyWindowsViaFlush(t *testing.T) {
	fc := &fakeClock{}
	s := NewRateSensor("fps", "frame_rate", fc.clock(), time.Second)
	for i := 0; i < 60; i++ {
		s.Tick()
		fc.advance(time.Second / 30)
	}
	// Stream stalls entirely; periodic flushes must drive the rate down.
	for i := 0; i < 10; i++ {
		fc.advance(time.Second)
		s.Flush()
	}
	if got := s.Read(); got > 1 {
		t.Errorf("rate after stall = %.2f, want ~0", got)
	}
}

func TestRateSensorSpikeFilter(t *testing.T) {
	fc := &fakeClock{}
	s := NewRateSensor("fps", "frame_rate", fc.clock(), time.Second)
	for i := 0; i < 300; i++ { // 10s at 30/s
		s.Tick()
		fc.advance(time.Second / 30)
	}
	base := s.Read()
	// One anomalous 1-second window with a 10x burst, then normal again.
	for i := 0; i < 300; i++ {
		s.Tick()
		fc.advance(time.Second / 300)
	}
	for i := 0; i < 30; i++ {
		s.Tick()
		fc.advance(time.Second / 30)
	}
	if got := s.Read(); got > base*1.5 {
		t.Errorf("single spike leaked into rate: %.1f (base %.1f)", got, base)
	}
}

func TestRateSensorDisabled(t *testing.T) {
	fc := &fakeClock{}
	s := NewRateSensor("fps", "frame_rate", fc.clock(), time.Second)
	s.SetEnabled(false)
	for i := 0; i < 60; i++ {
		s.Tick()
		fc.advance(time.Second / 30)
	}
	if s.Read() != 0 {
		t.Errorf("disabled sensor produced value %v", s.Read())
	}
}

func TestJitterSensorSmoothVsBursty(t *testing.T) {
	fc := &fakeClock{}
	s := NewJitterSensor("jit", "jitter_rate", fc.clock(), 33*time.Millisecond)
	for i := 0; i < 200; i++ {
		s.Tick()
		fc.advance(33 * time.Millisecond)
	}
	if got := s.Read(); got > 0.05 {
		t.Errorf("smooth stream jitter = %.3f, want ~0", got)
	}
	// Bursty: alternate 3ms and 200ms gaps.
	for i := 0; i < 200; i++ {
		s.Tick()
		if i%2 == 0 {
			fc.advance(3 * time.Millisecond)
		} else {
			fc.advance(200 * time.Millisecond)
		}
	}
	if got := s.Read(); got < 1.0 {
		t.Errorf("bursty stream jitter = %.3f, want > 1", got)
	}
}

func TestValueSensorSetAndSample(t *testing.T) {
	v := 0.0
	s := NewValueSensor("buf", "buffer_size", func() float64 { return v })
	s.Set(12)
	if s.Read() != 12 {
		t.Errorf("Read after Set = %v", s.Read())
	}
	v = 7
	s.Sample()
	if s.Read() != 7 {
		t.Errorf("Read after Sample = %v", s.Read())
	}
}

func TestWatchAlarmsOnTransitionAndRepeats(t *testing.T) {
	s := NewValueSensor("buf", "buffer_size", nil)
	type alarm struct {
		id  int
		sat bool
		v   float64
	}
	var alarms []alarm
	s.SetAlarmFunc(func(id int, sat bool, v float64) { alarms = append(alarms, alarm{id, sat, v}) })
	s.Watch(1, "<", 10)

	s.Set(5)  // satisfied: first evaluation -> one alarm (transition to known)
	s.Set(6)  // still satisfied: no alarm
	s.Set(15) // violated: alarm
	s.Set(16) // still violated: repeat alarm
	s.Set(3)  // back in range: alarm
	want := []alarm{{1, true, 5}, {1, false, 15}, {1, false, 16}, {1, true, 3}}
	if len(alarms) != len(want) {
		t.Fatalf("alarms = %v, want %v", alarms, want)
	}
	for i := range want {
		if alarms[i] != want[i] {
			t.Errorf("alarm %d = %v, want %v", i, alarms[i], want[i])
		}
	}
}

func TestUpdateWatchChangesThreshold(t *testing.T) {
	s := NewValueSensor("v", "x", nil)
	var last bool
	s.SetAlarmFunc(func(_ int, sat bool, _ float64) { last = sat })
	s.Watch(1, ">", 20)
	s.Set(25)
	if !last {
		t.Fatal("25 > 20 should satisfy")
	}
	if err := s.UpdateWatch(1, ">", 30); err != nil {
		t.Fatal(err)
	}
	if last {
		t.Fatal("threshold update should re-evaluate: 25 > 30 is false")
	}
	if err := s.UpdateWatch(99, ">", 1); err == nil {
		t.Error("UpdateWatch on unknown id succeeded")
	}
}

// testHarness wires a coordinator with sensors and captures outbound
// messages.
type testHarness struct {
	fc    *fakeClock
	coord *Coordinator
	sent  []msg.Message
	to    []string
	fps   *ValueSensor
	jit   *ValueSensor
	buf   *ValueSensor
}

func newHarness(t *testing.T) *testHarness {
	t.Helper()
	h := &testHarness{fc: &fakeClock{now: time.Second}}
	id := msg.Identity{Host: "h1", PID: 42, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "student"}
	h.coord = NewCoordinator(id, h.fc.clock(), func(to string, m msg.Message) error {
		h.to = append(h.to, to)
		h.sent = append(h.sent, m)
		return nil
	}, "/agent", "/h1/QoSHostManager")
	h.fps = NewValueSensor("fps_sensor", "frame_rate", nil)
	h.jit = NewValueSensor("jitter_sensor", "jitter_rate", nil)
	h.buf = NewValueSensor("buffer_sensor", "buffer_size", nil)
	h.coord.AddSensor(h.fps)
	h.coord.AddSensor(h.jit)
	h.coord.AddSensor(h.buf)
	return h
}

func example1Spec() msg.PolicySpec {
	return msg.PolicySpec{
		Name:       "NotifyQoSViolation",
		Connective: "and",
		Conditions: []msg.CondSpec{
			{Attribute: "frame_rate", Sensor: "fps_sensor", Op: ">", Value: 23},
			{Attribute: "frame_rate", Sensor: "fps_sensor", Op: "<", Value: 27},
			{Attribute: "jitter_rate", Sensor: "jitter_sensor", Op: "<", Value: 1.25},
		},
		Actions: []msg.ActionSpec{
			{Target: "fps_sensor", Op: "read", Args: []string{"frame_rate"}},
			{Target: "jitter_sensor", Op: "read", Args: []string{"jitter_rate"}},
			{Target: "buffer_sensor", Op: "read", Args: []string{"buffer_size"}},
			{Target: "QoSHostManager", Op: "notify", Args: []string{"frame_rate", "jitter_rate", "buffer_size"}},
		},
	}
}

func TestCoordinatorRegisterSendsSensors(t *testing.T) {
	h := newHarness(t)
	if err := h.coord.Register(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 || h.to[0] != "/agent" {
		t.Fatalf("sent = %v to %v", h.sent, h.to)
	}
	reg := h.sent[0].Body.(msg.Register)
	if reg.ID.PID != 42 || len(reg.Sensors) != 3 {
		t.Errorf("register = %+v", reg)
	}
}

func TestCoordinatorViolationFlow(t *testing.T) {
	h := newHarness(t)
	if err := h.coord.InstallPolicies([]msg.PolicySpec{example1Spec()}); err != nil {
		t.Fatal(err)
	}
	// Healthy readings: no notification.
	h.fps.Set(25)
	h.jit.Set(0.5)
	h.buf.Set(2)
	if len(h.sent) != 0 {
		t.Fatalf("healthy readings produced %d messages", len(h.sent))
	}
	// Frame rate collapses: violation notification with all readings.
	h.buf.Set(14)
	h.fps.Set(12)
	if len(h.sent) != 1 {
		t.Fatalf("violation produced %d messages", len(h.sent))
	}
	v := h.sent[0].Body.(msg.Violation)
	if v.Policy != "NotifyQoSViolation" || v.Overshoot {
		t.Errorf("violation = %+v", v)
	}
	if v.Readings["frame_rate"] != 12 || v.Readings["jitter_rate"] != 0.5 || v.Readings["buffer_size"] != 14 {
		t.Errorf("readings = %v", v.Readings)
	}
	if h.to[0] != "/h1/QoSHostManager" {
		t.Errorf("notified %q", h.to[0])
	}
}

func TestCoordinatorNotificationPacing(t *testing.T) {
	h := newHarness(t)
	_ = h.coord.InstallPolicies([]msg.PolicySpec{example1Spec()})
	h.jit.Set(0.5)
	h.buf.Set(1)
	for i := 0; i < 10; i++ {
		h.fps.Set(10) // repeated alarms while violated
	}
	if len(h.sent) != 1 {
		t.Fatalf("pacing failed: %d notifications within one interval", len(h.sent))
	}
	h.fc.advance(time.Second)
	h.fps.Set(9)
	if len(h.sent) != 2 {
		t.Fatalf("after interval: %d notifications, want 2", len(h.sent))
	}
	if h.coord.Violations < 2 || h.coord.Notifies != 2 {
		t.Errorf("stats: violations=%d notifies=%d", h.coord.Violations, h.coord.Notifies)
	}
}

func TestCoordinatorOvershootClassification(t *testing.T) {
	h := newHarness(t)
	_ = h.coord.InstallPolicies([]msg.PolicySpec{example1Spec()})
	h.jit.Set(0.5)
	h.buf.Set(0)
	h.fps.Set(30) // above the 27 upper bound only
	if len(h.sent) != 1 {
		t.Fatalf("overshoot produced %d messages", len(h.sent))
	}
	v := h.sent[0].Body.(msg.Violation)
	if !v.Overshoot {
		t.Error("upper-bound breach not classified as overshoot")
	}
	// Low frame rate is a genuine violation even though the jitter bound
	// is also an upper bound that still holds.
	h.fc.advance(time.Second)
	h.fps.Set(10)
	v = h.sent[1].Body.(msg.Violation)
	if v.Overshoot {
		t.Error("lower-bound breach misclassified as overshoot")
	}
}

func TestCoordinatorDisjunctivePolicy(t *testing.T) {
	h := newHarness(t)
	spec := msg.PolicySpec{
		Name:       "Either",
		Connective: "or",
		Conditions: []msg.CondSpec{
			{Attribute: "frame_rate", Sensor: "fps_sensor", Op: ">", Value: 23},
			{Attribute: "jitter_rate", Sensor: "jitter_sensor", Op: "<", Value: 1.0},
		},
		Actions: []msg.ActionSpec{
			{Target: "fps_sensor", Op: "read", Args: []string{"frame_rate"}},
			{Target: "QoSHostManager", Op: "notify", Args: []string{"frame_rate"}},
		},
	}
	_ = h.coord.InstallPolicies([]msg.PolicySpec{spec})
	h.fps.Set(10) // one disjunct false, other unknown->assumed true: no violation yet
	h.jit.Set(0.5)
	if len(h.sent) != 0 {
		t.Fatalf("disjunction violated too early: %d messages", len(h.sent))
	}
	h.jit.Set(2.0) // both disjuncts now false
	if len(h.sent) != 1 {
		t.Fatalf("disjunction violation missed: %d messages", len(h.sent))
	}
}

func TestInstallPoliciesValidatesSensors(t *testing.T) {
	h := newHarness(t)
	bad := example1Spec()
	bad.Conditions[0].Sensor = "missing_sensor"
	if err := h.coord.InstallPolicies([]msg.PolicySpec{bad}); err == nil {
		t.Error("install with unknown sensor succeeded")
	}
	bad2 := example1Spec()
	bad2.Conditions[0].Attribute = "wrong_attr"
	if err := h.coord.InstallPolicies([]msg.PolicySpec{bad2}); err == nil {
		t.Error("install with mismatched attribute succeeded")
	}
}

func TestInstallPoliciesReplacesOldSet(t *testing.T) {
	h := newHarness(t)
	_ = h.coord.InstallPolicies([]msg.PolicySpec{example1Spec()})
	// Replace with a policy that only watches jitter.
	spec := msg.PolicySpec{
		Name:       "JitterOnly",
		Connective: "and",
		Conditions: []msg.CondSpec{
			{Attribute: "jitter_rate", Sensor: "jitter_sensor", Op: "<", Value: 1.25},
		},
		Actions: []msg.ActionSpec{
			{Target: "jitter_sensor", Op: "read", Args: []string{"jitter_rate"}},
			{Target: "QoSHostManager", Op: "notify", Args: []string{"jitter_rate"}},
		},
	}
	if err := h.coord.InstallPolicies([]msg.PolicySpec{spec}); err != nil {
		t.Fatal(err)
	}
	if got := h.coord.Policies(); len(got) != 1 || got[0] != "JitterOnly" {
		t.Fatalf("policies = %v", got)
	}
	// Old frame-rate watches must be gone: low fps produces nothing.
	h.fps.Set(5)
	if len(h.sent) != 0 {
		t.Errorf("stale watch fired: %v", h.sent)
	}
	h.jit.Set(3)
	if len(h.sent) != 1 {
		t.Errorf("new policy inactive: %d messages", len(h.sent))
	}
}

func TestCoordinatorHandlePolicySetMessage(t *testing.T) {
	h := newHarness(t)
	err := h.coord.HandleMessage(msg.Message{
		From: "/agent",
		Body: msg.PolicySet{ID: h.coord.Identity(), Policies: []msg.PolicySpec{example1Spec()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.coord.Policies()) != 1 {
		t.Error("policy set message not installed")
	}
	if err := h.coord.HandleMessage(msg.Message{Body: msg.Ack{}}); err == nil {
		t.Error("unexpected message type accepted")
	}
}

func TestActuatorViaPolicyAction(t *testing.T) {
	h := newHarness(t)
	var applied []string
	h.coord.AddActuator(&FuncActuator{Name: "shrink_actuator", Fn: func(args ...string) error {
		applied = args
		return nil
	}})
	spec := msg.PolicySpec{
		Name:       "Shrink",
		Connective: "and",
		Conditions: []msg.CondSpec{
			{Attribute: "buffer_size", Sensor: "buffer_sensor", Op: "<", Value: 100},
		},
		Actions: []msg.ActionSpec{
			{Target: "shrink_actuator", Op: "apply", Args: []string{"half"}},
			{Target: "QoSHostManager", Op: "notify", Args: []string{"buffer_size"}},
		},
	}
	_ = h.coord.InstallPolicies([]msg.PolicySpec{spec})
	h.buf.Set(500)
	if len(applied) != 1 || applied[0] != "half" {
		t.Errorf("actuator args = %v", applied)
	}
}
