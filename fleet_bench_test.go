package softqos

import (
	"fmt"
	"testing"
	"time"

	"softqos/internal/scenario"
)

// BenchmarkFleetDetectAdapt runs the three-tier fleet simulator at
// 100/1k/10k hosts, two minutes of virtual time per iteration. The
// benchmark's own ns/op is the wall cost of simulating the fleet; the
// detect→adapt latency quantiles of the simulated control loop ride
// along as custom metrics. Both must stay flat-ish per host as the
// fleet grows — that is the hierarchy's contract.
func BenchmarkFleetDetectAdapt(b *testing.B) {
	for _, hosts := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			var p50, p99 time.Duration
			var adapted uint64
			for i := 0; i < b.N; i++ {
				sys := scenario.BuildFleet(scenario.FleetConfig{
					Seed: 1, Hosts: hosts, ProcsPerHost: 10,
				})
				res := sys.Run(2 * time.Minute)
				p50, p99, adapted = res.DetectAdaptP50, res.DetectAdaptP99, res.Adapted
				if adapted == 0 {
					b.Fatal("fleet loop never closed")
				}
			}
			b.ReportMetric(float64(p50.Nanoseconds()), "detect-adapt-p50-ns")
			b.ReportMetric(float64(p99.Nanoseconds()), "detect-adapt-p99-ns")
			b.ReportMetric(float64(adapted), "adaptations")
		})
	}
}

// BenchmarkFleetSim is one iteration of the benchmark's fleet_sim
// workload: the 10 000-host fleet with federated telemetry, the event log
// and three policy generations, two minutes of virtual time. It is the
// configuration `make profile-fleet` profiles.
func BenchmarkFleetSim(b *testing.B) {
	var res scenario.FleetResult
	for i := 0; i < b.N; i++ {
		sys := scenario.BuildFleet(scenario.FleetConfig{
			Seed: 1, Hosts: 10000, ProcsPerHost: 10,
			Federate: true, EventLog: true, PolicyGens: 3,
		})
		res = sys.Run(2 * time.Minute)
		if res.Adapted == 0 {
			b.Fatal("fleet loop never closed")
		}
	}
	b.ReportMetric(float64(res.Events), "events")
	b.ReportMetric(float64(res.Adaptations), "adaptations")
}
