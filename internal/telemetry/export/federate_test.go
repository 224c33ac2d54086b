package export

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"softqos/internal/manager"
	"softqos/internal/msg"
	"softqos/internal/telemetry"
)

// sampleFleetView builds a deterministic federated view the way a
// region would: per-host summaries merged up through domain
// aggregators into a terminal one.
func sampleFleetView(hosts, domains int) telemetry.FederatedView {
	noSend := func(string, msg.Message) error { return nil }
	noAfter := func(time.Duration, func()) {}
	region := manager.NewSummaryAggregator("region", "/r", "", noSend, 0, noAfter)
	rng := rand.New(rand.NewSource(5))
	for d := 0; d < domains; d++ {
		win := telemetry.NewSummary()
		var covered uint64
		for h := d; h < hosts; h += domains {
			sum := telemetry.NewSummary()
			sk := sum.Sketch("fleet.load")
			for i := 0; i < 20; i++ {
				sk.Observe(rng.Float64() * 3)
			}
			sum.Sketch("fleet.detect_adapt_ns").ObserveDuration(8 * time.Millisecond)
			sum.AddCounter("fleet.samples", 20)
			sum.SetMax("fleet.cpu_load_max", rng.Float64()*4)
			c, m, sks := sum.Export()
			win.Absorb(c, m, sks)
			covered++
		}
		c, m, sks := win.Export()
		region.Ingest(msg.TelemetrySummary{
			Tier: "domain", Source: fmt.Sprintf("/d%d", d), Seq: 1,
			Hosts: covered, Counters: c, Maxima: m, Sketches: sks,
		})
	}
	return region.FleetView()
}

// TestFederatedPayloadShape: the JSON document is stable, carries the
// fleet aggregate and per-domain children, and never serializes
// Children as null.
func TestFederatedPayloadShape(t *testing.T) {
	v := sampleFleetView(12, 3)
	var b strings.Builder
	if err := WriteFederatedJSON(&b, BuildFederated(v)); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Federated telemetry.FederatedView `json:"federated"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("payload not JSON: %v", err)
	}
	f := decoded.Federated
	if f.Tier != "region" || f.Hosts != 12 || len(f.Children) != 3 {
		t.Fatalf("decoded view: tier=%s hosts=%d children=%d", f.Tier, f.Hosts, len(f.Children))
	}
	if len(f.Fleet.Histograms) != 2 || f.Fleet.Histograms[1].Name != "fleet.load" {
		t.Fatalf("fleet histograms: %+v", f.Fleet.Histograms)
	}
	if f.Fleet.Histograms[1].Count != 12*20 {
		t.Errorf("fleet.load count = %d, want %d", f.Fleet.Histograms[1].Count, 12*20)
	}

	// Children never render as null, even for an empty view.
	var e strings.Builder
	if err := WriteFederatedJSON(&e, BuildFederated(telemetry.FederatedView{})); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(e.String(), `"Children": null`) {
		t.Error("empty view serializes Children as null")
	}
}

// TestFederatedSnapshot: the fleet aggregate renders through the stock
// Prometheus writer — counters as counters, maxima and coverage as
// gauges, sketches as histogram summaries.
func TestFederatedSnapshot(t *testing.T) {
	s := FederatedSnapshot(sampleFleetView(12, 3))
	var b strings.Builder
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"fleet_samples 240",
		"fleet_hosts 12",
		"fleet_cpu_load_max ",
		`fleet_load{quantile="0.95"}`,
		"fleet_load_count 240",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

// TestFleetDashboardRendersAggregatesOnly: the HTML page carries the
// fleet tables and one row per domain — and no per-host anything.
func TestFleetDashboardRendersAggregatesOnly(t *testing.T) {
	v := sampleFleetView(12, 3)
	var b strings.Builder
	if err := WriteFleetDashboard(&b, v); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{
		"softqos fleet telemetry (federated)",
		"12 hosts",
		"fleet.load",
		"/d0", "/d1", "/d2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(page, "<script") {
		t.Error("fleet dashboard must stay script-free")
	}
}

// TestHandlerFederatedMode: WithFederation switches /metrics,
// /debug/qos and the dashboard to the fleet view while leaving the
// other endpoints (trace, timeline, slo) on per-process state.
func TestHandlerFederatedMode(t *testing.T) {
	v := sampleFleetView(12, 3)
	srv, err := Serve("127.0.0.1:0", telemetry.NewRegistry(nil), nil,
		WithFederation(func() telemetry.FederatedView { return v }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if text := get("/metrics"); !strings.Contains(text, "fleet_hosts 12") {
		t.Errorf("/metrics not federated:\n%s", text)
	}
	var p FederatedPayload
	if err := json.Unmarshal([]byte(get("/debug/qos")), &p); err != nil {
		t.Fatalf("/debug/qos: %v", err)
	}
	if p.Federated.Hosts != 12 {
		t.Errorf("/debug/qos hosts = %d, want 12", p.Federated.Hosts)
	}
	if page := get("/debug/qos/dashboard"); !strings.Contains(page, "fleet telemetry") {
		t.Error("/debug/qos/dashboard not the fleet page")
	}
	if chrome := get("/debug/qos/chrome"); !strings.Contains(chrome, "traceEvents") {
		t.Error("/debug/qos/chrome lost its per-process rendering")
	}
}

// BenchmarkFederatedExport measures rendering the full federated JSON
// payload for a fleet-shaped view (10 domains) — the per-scrape cost of
// the 10k-host debug endpoint.
func BenchmarkFederatedExport(b *testing.B) {
	v := sampleFleetView(100, 10)
	p := BuildFederated(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFederatedJSON(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetDashboard measures the HTML rendering path.
func BenchmarkFleetDashboard(b *testing.B) {
	v := sampleFleetView(100, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFleetDashboard(io.Discard, v); err != nil {
			b.Fatal(err)
		}
	}
}
