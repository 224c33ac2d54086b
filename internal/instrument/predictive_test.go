package instrument

import (
	"testing"
	"time"

	"softqos/internal/msg"
)

func TestPredictiveWatchFiresBeforeCrossing(t *testing.T) {
	fc := &fakeClock{}
	s := NewValueSensorClocked("v", "x", fc.clock(), nil)
	var reactive, predictive []float64
	s.SetAlarmFunc(func(id int, sat bool, v float64) {
		if !sat {
			if id == 1 {
				reactive = append(reactive, v)
			} else {
				predictive = append(predictive, v)
			}
		}
	})
	s.Watch(1, ">", 23)
	s.Watch(2, ">", 23)
	if err := s.SetHorizon(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Decline from 30 by 1 per second: crosses 23 at t=7; the 5s horizon
	// should fire around t=3 (predicted 30-t-5 < 23).
	for i := 0; i <= 10; i++ {
		s.Set(30 - float64(i))
		fc.advance(time.Second)
	}
	if len(reactive) == 0 || len(predictive) == 0 {
		t.Fatalf("alarms: reactive=%v predictive=%v", reactive, predictive)
	}
	// The predictive watch must alarm at a higher (earlier) value.
	if predictive[0] <= reactive[0] {
		t.Errorf("predictive first alarm at value %.1f, reactive at %.1f; want earlier",
			predictive[0], reactive[0])
	}
	if predictive[0] < 25 || predictive[0] > 28 {
		t.Errorf("predictive alarm value %.1f, want ~26-27 (5s lead on slope -1/s)", predictive[0])
	}
}

func TestPredictiveStableValueNoFalseAlarm(t *testing.T) {
	fc := &fakeClock{}
	s := NewValueSensorClocked("v", "x", fc.clock(), nil)
	alarms := 0
	s.SetAlarmFunc(func(_ int, sat bool, _ float64) {
		if !sat {
			alarms++
		}
	})
	s.Watch(1, ">", 23)
	_ = s.SetHorizon(1, 5*time.Second)
	for i := 0; i < 50; i++ {
		s.Set(29 + float64(i%2)*0.2) // stable around 29
		fc.advance(time.Second)
	}
	if alarms != 0 {
		t.Errorf("stable signal raised %d predictive alarms", alarms)
	}
}

func TestSetHorizonUnknownWatch(t *testing.T) {
	s := NewValueSensor("v", "x", nil)
	if err := s.SetHorizon(42, time.Second); err == nil {
		t.Fatal("SetHorizon on unknown watch succeeded")
	}
}

func TestSlopeEstimate(t *testing.T) {
	fc := &fakeClock{}
	s := NewValueSensorClocked("v", "x", fc.clock(), nil)
	for i := 0; i <= 20; i++ {
		s.Set(float64(2 * i)) // +2 per second
		fc.advance(time.Second)
	}
	// The trend the predictive watches extrapolate along.
	if got := s.predicted(time.Second) - s.Read(); got < 1.8 || got > 2.2 {
		t.Errorf("slope = %.2f, want ~2", got)
	}
}

func TestJitterSetNominal(t *testing.T) {
	fc := &fakeClock{}
	s := NewJitterSensor("jit", "jitter_rate", fc.clock(), 33*time.Millisecond)
	// A 100ms cadence reads ~2.0 against a 33ms nominal...
	for i := 0; i < 100; i++ {
		s.Tick()
		fc.advance(100 * time.Millisecond)
	}
	if got := s.Read(); got < 1.5 {
		t.Fatalf("jitter vs wrong nominal = %.2f, want ~2", got)
	}
	// ...and ~0 once the nominal is re-based.
	s.SetNominal(100 * time.Millisecond)
	for i := 0; i < 100; i++ {
		s.Tick()
		fc.advance(100 * time.Millisecond)
	}
	if got := s.Read(); got > 0.05 {
		t.Errorf("jitter after SetNominal = %.2f, want ~0", got)
	}
}

func TestCoordinatorPredictionHorizon(t *testing.T) {
	h := newHarness(t)
	// Clocked gauge so trends can be estimated.
	fps := NewValueSensorClocked("fps_sensor", "frame_rate", h.fc.clock(), nil)
	h.coord.AddSensor(fps) // replaces the unclocked one
	_ = h.coord.InstallPolicies([]msg.PolicySpec{example1Spec()})
	h.coord.SetPredictionHorizon(5 * time.Second)
	h.jit.Set(0.5)
	h.buf.Set(12)
	// Decline from 30 by 1/s: still above 23 but predicted below.
	for i := 0; i <= 5; i++ {
		fps.Set(30 - float64(i))
		h.fc.advance(time.Second)
	}
	if len(h.sent) == 0 {
		t.Fatal("no proactive violation sent while trending toward the bound")
	}
	v := h.sent[0].Body.(msg.Violation)
	if v.Readings["frame_rate"] < 23 {
		t.Errorf("proactive report came too late: fps already %v", v.Readings["frame_rate"])
	}
}

func TestCoordinatorDirectiveActuates(t *testing.T) {
	h := newHarness(t)
	var got []string
	h.coord.AddActuator(&FuncActuator{Name: "frame_skip", Fn: func(args ...string) error {
		got = args
		return nil
	}})
	err := h.coord.HandleMessage(msg.Message{From: "/mgr", Body: msg.Directive{
		Action: "actuate", Target: "frame_skip", Amount: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "3" {
		t.Errorf("actuator args = %v", got)
	}
	if err := h.coord.HandleMessage(msg.Message{Body: msg.Directive{
		Action: "actuate", Target: "ghost"}}); err == nil {
		t.Error("directive for unknown actuator succeeded")
	}
	if err := h.coord.HandleMessage(msg.Message{Body: msg.Directive{
		Action: "reboot", Target: "frame_skip"}}); err == nil {
		t.Error("unsupported directive action succeeded")
	}
}

func TestInstalledSpecsCopies(t *testing.T) {
	h := newHarness(t)
	_ = h.coord.InstallPolicies([]msg.PolicySpec{example1Spec()})
	specs := h.coord.InstalledSpecs()
	if len(specs) != 1 || len(specs[0].Conditions) != 3 {
		t.Fatalf("specs = %+v", specs)
	}
	// Mutating the copy must not affect the installed policy.
	specs[0].Conditions[0].Value = 999
	again := h.coord.InstalledSpecs()
	if again[0].Conditions[0].Value == 999 {
		t.Error("InstalledSpecs returned shared condition storage")
	}
}
