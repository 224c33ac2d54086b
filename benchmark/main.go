// Command benchmark is the repository's one trusted benchmark: two
// workloads that drive the default live configuration over loopback TCP
// (detect→adapt latency and capacity, cross-host localization) and the
// 10000-host fleet simulation, each with an untraced end-to-end pass and
// a traced per-layer pass. BENCHMARK.json at the repository root names
// the metrics; README.md in this directory explains them.
//
// The driver's contract:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// measures one workload in a fresh process and prints, as the last line
// of standard output, one JSON object {correct, attempted, failed,
// metrics}: every end-to-end metric with --trace 0, every per-layer
// metric with --trace 1.
//
// Also: -aa K repeats the untraced pass K times per workload (seeds
// seed..seed+K-1) and prints each metric's median, quartiles and spread
// against its bound; -manifest prints BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var cfg runConfig
	var traceFlag, aa int
	var printManifest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: live_local, live_escalate or fleet_sim")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of visit order, cycle offsets, PIDs and the fleet")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass and probes")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke sizes: pool 256, 200 hosts, short probes")
	flag.StringVar(&cfg.outDir, "out", "", "directory for trace.json and result.json (default .bench_build/out/<workload>)")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run the untraced pass this many times per workload and print each metric's spread")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = traceFlag != 0

	switch {
	case printManifest:
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	case aa > 0:
		if err := runAA(cfg, aa); err != nil {
			fatal(err)
		}
	default:
		if cfg.outDir == "" {
			cfg.outDir = filepath.Join(".bench_build", "out", cfg.workload)
		}
		out, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out.json())
		if !out.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runWorkload measures one workload in this process and returns the
// outcome the contract asks for; the human-readable record goes to log.
func runWorkload(cfg runConfig, log *os.File) (outcome, error) {
	if !knownWorkload(cfg.workload) {
		return outcome{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return outcome{}, fmt.Errorf("-seconds must be positive")
	}
	// One P: every hand-off between goroutines of the generator and the
	// system stays inside the Go scheduler. With two, a hand-off may wake
	// a halted vCPU of the shared host, and the runs measured the
	// hypervisor (see README.md, "Why one P").
	runtime.GOMAXPROCS(1)
	env := readEnvironment()
	fmt.Fprintf(log, "workload %s, seed %d, window %.1fs, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(log, "environment: %s\n", env)
	if env.Noisy {
		fmt.Fprintf(log, "NOISY: load average %.2f at start exceeds half of %d cores; treat these numbers as unreliable\n", env.Load1, env.NProc)
	}

	res := newResults()
	if !cfg.trace {
		res.pass = newPassSampler()
		res.pass.sample()
	}
	var err error
	if cfg.workload == "fleet_sim" {
		err = runFleet(cfg, res)
	} else {
		err = runLive(cfg, res)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs := perLayer
	if !cfg.trace {
		defs = endToEnd
		res.set("probe_pass_ns", res.pass.value())
		res.set("peak_rss_mb", peakRSSMB())
	}
	out, err := res.outcomeFor(defs, !cfg.trace)
	if err != nil {
		return out, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, line := range res.info {
		fmt.Fprintln(log, line)
	}
	fmt.Fprint(log, out.table())
	fmt.Fprintf(log, "attempted %d, failed %d\n", out.Attempted, out.Failed)
	for _, n := range res.notes {
		fmt.Fprintln(log, "FAILED:", n)
	}
	if err := writeResult(cfg, env, out); err != nil {
		return out, err
	}
	return out, nil
}

// writeResult keeps the run's record next to its trace.
func writeResult(cfg runConfig, env environment, out outcome) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := "result.json"
	if cfg.trace {
		name = "layers.json"
	}
	b, err := json.MarshalIndent(struct {
		Workload    string      `json:"workload"`
		Seed        int64       `json:"seed"`
		Seconds     float64     `json:"seconds"`
		Traced      bool        `json:"traced"`
		Environment environment `json:"environment"`
		Outcome     outcome     `json:"outcome"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, env, out}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(b, '\n'), 0o644)
}
