package rules

import (
	"reflect"
	"sync"
	"testing"
)

// runEpisodes applies a genWorkload op sequence to e and returns the
// firings it reported.
func runEpisodes(t *testing.T, e *Engine, ops []equivOp) []Firing {
	var out []Firing
	e.OnFiring = func(f Firing) { out = append(out, f) }
	for _, op := range ops {
		switch op.kind {
		case 0:
			e.Assert(op.items...)
		case 1:
			e.RetractMatching(op.items...)
		case 3:
			if _, err := e.Run(op.limit); err != nil {
				t.Error(err)
			}
		}
	}
	return out
}

// TestSharedProgramConcurrentEngines: two engines loaded from one Program
// run episodes on two goroutines at once, and each one's firings equal
// those of an engine that ran the same episodes alone. Under -race this
// also checks that running an engine writes nothing the program holds.
func TestSharedProgramConcurrentEngines(t *testing.T) {
	prog, err := Compile("diagnosis", equivRules)
	if err != nil {
		t.Fatal(err)
	}
	workloads := [][]equivOp{genWorkload(1, 400), genWorkload(2, 400)}
	solo := make([][]Firing, len(workloads))
	for i, ops := range workloads {
		e := NewEngine()
		e.Load(prog)
		if solo[i] = runEpisodes(t, e, ops); len(solo[i]) == 0 {
			t.Fatalf("workload %d fired nothing", i)
		}
	}
	shared := make([][]Firing, len(workloads))
	var wg sync.WaitGroup
	for i, ops := range workloads {
		e := NewEngine()
		e.Load(prog)
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i] = runEpisodes(t, e, ops)
		}()
	}
	wg.Wait()
	for i := range workloads {
		if !reflect.DeepEqual(shared[i], solo[i]) {
			t.Errorf("workload %d: %d firings beside another engine, %d alone", i, len(shared[i]), len(solo[i]))
		}
		if solo[i][0].Origin != "diagnosis" {
			t.Errorf("workload %d: origin %q", i, solo[i][0].Origin)
		}
	}
}
