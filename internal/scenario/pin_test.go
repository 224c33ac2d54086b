package scenario

import (
	"reflect"
	"testing"
	"time"
)

// The pins below hold every result field of the A3, A9 and webapp
// experiments on short windows, to full precision. A refactor of the
// scenario wiring must leave them byte-identical: the order of
// scheduled events and of PID allocation decides every value.

func TestPinScale(t *testing.T) {
	for _, tc := range []struct {
		cfg  ScaleConfig
		want ScaleResult
	}{
		{ScaleConfig{Hosts: 2, SessionsPerHost: 2, LoadPerHost: 2}, ScaleResult{
			Sessions: 4, MeanFPS: 30, MinFPS: 30, Violations: 0, Adjustments: 80, Escalations: 0, Events: 27817, Notifies: 156,
			SessionFPS: []float64{30, 30, 30, 30}}},
		{ScaleConfig{Hosts: 16, SessionsPerHost: 4, LoadPerHost: 2}, ScaleResult{
			Sessions: 64, MeanFPS: 24.898437500000004, MinFPS: 22.666666666666668, Violations: 1186, Adjustments: 1893, Escalations: 92, Events: 421088, Notifies: 2298,
			Restarts: 0, ServerFaults: 71, NetworkFaults: 21,
			SessionFPS: []float64{
				25.133333333333333, 24.633333333333333, 25.133333333333333, 24.6, 25.133333333333333, 24.633333333333333,
				25.133333333333333, 24.6, 25.133333333333333, 24.633333333333333, 25.133333333333333, 24.6,
				26.333333333333332, 23.166666666666668, 26.233333333333334, 23.833333333333332, 26.333333333333332, 23.166666666666668,
				26.233333333333334, 23.833333333333332, 26.166666666666668, 26, 22.666666666666668, 25.2,
				25.5, 25.8, 23.433333333333334, 25.3, 25.5, 25.8,
				23.433333333333334, 25.3, 28.333333333333332, 24, 24.233333333333334, 23.466666666666665,
				28.333333333333332, 24, 24.233333333333334, 23.466666666666665, 28.2, 24.733333333333334,
				23.5, 23.6, 24.966666666666665, 27.066666666666666, 23.466666666666665, 23.633333333333333,
				24.966666666666665, 27.066666666666666, 23.466666666666665, 23.633333333333333, 23.7, 26.666666666666668,
				23.9, 24.866666666666667, 23.7, 26.666666666666668, 23.9, 24.866666666666667,
				25.2, 22.766666666666666, 27.166666666666668, 24}}},
	} {
		got := Scale(tc.cfg, 10*time.Second, 30*time.Second)
		got.WallTime = 0
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Scale(%d hosts) moved:\n got %+v\nwant %+v", tc.cfg.Hosts, got, tc.want)
		}
	}
}

func TestPinMultiApp(t *testing.T) {
	for _, tc := range []struct {
		differentiated bool
		want           MultiAppResult
	}{
		{false, MultiAppResult{PhysicianFPS: 19.3, StudentFPS: 20.7, PhysicianOK: false}},
		{true, MultiAppResult{PhysicianFPS: 30, StudentFPS: 10, PhysicianOK: true}},
	} {
		got := MultiApp(MultiAppConfig{Differentiated: tc.differentiated}, 10*time.Second, 30*time.Second)
		if got != tc.want {
			t.Errorf("MultiApp(differentiated=%v) moved:\n got %+v\nwant %+v", tc.differentiated, got, tc.want)
		}
	}
}

func TestPinWebScenario(t *testing.T) {
	for _, tc := range []struct {
		managed bool
		want    WebResult
	}{
		{false, WebResult{MeanLatencyMs: 8907.374047, P100BacklogMax: 128, Violations: 0, Adjustments: 0, FinalBoost: 0, Served: 1100}},
		{true, WebResult{MeanLatencyMs: 12, P100BacklogMax: 105, Violations: 16, Adjustments: 12, FinalBoost: 59, Served: 2777}},
	} {
		got := WebScenario(1, 5, tc.managed, 10*time.Second, 30*time.Second)
		if got != tc.want {
			t.Errorf("WebScenario(managed=%v) moved:\n got %+v\nwant %+v", tc.managed, got, tc.want)
		}
	}
}
