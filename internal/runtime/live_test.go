package runtime

import (
	"testing"
	"time"
)

// TestSampledReadsAtMostOncePerInterval: the default load observer asks
// the OS on the first call and then once per interval, answering with
// the last reading in between.
func TestSampledReadsAtMostOncePerInterval(t *testing.T) {
	var now time.Duration
	reads, load := 0, 1.5
	obs := sampled(func() float64 { reads++; return load }, func() time.Duration { return now }, time.Second)

	for i := 0; i < 1000; i++ { // a burst of reports inside one interval
		if got := obs(); got != 1.5 {
			t.Fatalf("call %d: %v, want 1.5", i, got)
		}
		now += 500 * time.Microsecond
	}
	if reads != 1 {
		t.Fatalf("%d reads in the first half second, want 1", reads)
	}
	load, now = 4.0, time.Second-time.Nanosecond
	if got := obs(); got != 1.5 || reads != 1 {
		t.Fatalf("just inside the interval: %v after %d reads, want the old 1.5 after 1", got, reads)
	}
	now = time.Second
	if got := obs(); got != 4.0 || reads != 2 {
		t.Fatalf("at the interval: %v after %d reads, want 4 after 2", got, reads)
	}
	now = time.Minute // a long quiet stretch costs one read, not sixty
	if obs(); reads != 3 {
		t.Fatalf("%d reads after a quiet minute, want 3", reads)
	}
}

// TestLiveHostLoadAvg: the default observer is the sampled OS reading,
// SetLoadFunc replaces it (unsampled: the caller's function is the
// caller's business), nil reads as zero.
func TestLiveHostLoadAvg(t *testing.T) {
	h := NewLiveHost("h")
	if got, want := h.LoadAvg(), OSLoadAvg(); want > 0 && (got < want/4 || got > want*4+1) {
		t.Errorf("default LoadAvg %v is nowhere near the OS's %v", got, want)
	}
	calls := 0
	h.SetLoadFunc(func() float64 { calls++; return 2.5 })
	if h.LoadAvg() != 2.5 || h.LoadAvg() != 2.5 || calls != 2 {
		t.Errorf("replaced observer: %d calls, want every LoadAvg to reach it", calls)
	}
	h.SetLoadFunc(nil)
	if got := h.LoadAvg(); got != 0 {
		t.Errorf("LoadAvg with no observer = %v, want 0", got)
	}
}

// TestLiveHostAdjustHook: every change a resource manager makes to a
// process handle reaches the host's hook with the value before and
// after; a no-op change and a change to an exited process reach nothing;
// handles registered before the hook was installed report to it too.
func TestLiveHostAdjustHook(t *testing.T) {
	h := NewLiveHost("h")
	early := h.StartProc(1)
	var got []Adjustment
	h.SetOnAdjust(func(a Adjustment) { got = append(got, a) })
	p := h.StartProc(2)
	if h.StartProc(2) != p || h.Proc(2) != p || h.Proc(3) != nil {
		t.Fatal("StartProc must return the one handle per pid, Proc nil for a stranger")
	}

	early.SetBoost(3)
	p.SetBoost(5)
	p.SetBoost(5) // unchanged: nothing to surface
	p.SetSchedClass(true, 10)
	if res := p.SetResident(-7); res != 0 { // clamped at zero, which it already is
		t.Errorf("SetResident(-7) = %d, want 0", res)
	}
	p.SetResident(128)
	p.SetExited()
	p.SetBoost(9)
	p.SetResident(256)

	want := []Adjustment{
		{PID: 1, What: "boost", Value: 3},
		{PID: 2, What: "boost", Value: 5},
		{PID: 2, What: "class", Value: 10, RT: true},
		{PID: 2, What: "resident", Value: 128},
	}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d adjustments %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("adjustment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if p.Alive() || p.Boost() != 5 || !p.Realtime() || p.Resident() != 128 {
		t.Errorf("exited process changed: boost %d rt %v resident %d", p.Boost(), p.Realtime(), p.Resident())
	}
}
