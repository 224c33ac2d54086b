package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runAA is the A/A mode: the same code measured k times per workload,
// each workload in a fresh child process and the workloads interleaved,
// seeds seed..seed+k-1 as the driver varies them. It prints, for every
// end-to-end metric, the median, the quartiles and the spread (the
// inter-quartile distance as a share of the median) against its bound.
// The bounds in metrics.go come from this table.
func runAA(cfg runConfig, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> runs
	failed := 0
	for i := 0; i < k; i++ {
		for _, w := range names {
			args := []string{"--workload", w, "--seed", fmt.Sprint(cfg.seed + int64(i)),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0"}
			if cfg.quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w\n%s", w, i, err, stdout)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var out outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				return fmt.Errorf("%s run %d: last line is not a result: %w", w, i, err)
			}
			failed += out.Failed
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for name, v := range out.Metrics {
				values[w][name] = append(values[w][name], v.Value)
			}
			fmt.Printf("%s seed %d: attempted %d failed %d\n", w, cfg.seed+int64(i), out.Attempted, out.Failed)
		}
	}
	fmt.Printf("\n%-14s %-20s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range names {
		for _, d := range endToEnd {
			v := values[w][d.Name]
			q1, q3 := quartiles(v)
			verdict := ""
			switch sp := spread(v); {
			case d.Name == "setup_s":
			case sp > d.Bound:
				verdict = "  WIDER THAN BOUND"
			case sp > d.Bound/3:
				verdict = "  above a third of the bound"
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
				w, d.Name, median(v), q1, q3, 100*spread(v), 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed across the A/A runs", failed)
	}
	return nil
}
