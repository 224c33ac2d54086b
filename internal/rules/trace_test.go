package rules

import (
	"strings"
	"testing"
)

func TestTraceRecordsFirings(t *testing.T) {
	e := mustLoad(t, `
(defrule diagnose
  (violation ?p)
  (reading ?p buffer_size ?len)
  (test (>= ?len 8))
  =>
  (assert (diagnosis ?p local)))
`)
	var tr []Firing
	e.OnFiring = func(f Firing) { tr = append(tr, f) }
	e.AssertF("violation", "p1")
	e.AssertF("reading", "p1", "buffer_size", 12)
	mustRun(t, e)
	if len(tr) != 1 {
		t.Fatalf("trace length = %d", len(tr))
	}
	f := tr[0]
	if f.Seq != 1 || f.Rule != "diagnose" || f.Bindings["?p"] != "p1" || f.Bindings["?len"] != "12" {
		t.Errorf("firing = %+v", f)
	}
	if len(f.Matched) != 2 || len(f.Asserted) != 1 {
		t.Errorf("matched facts = %v, asserted %v", f.Matched, f.Asserted)
	}
	if !strings.Contains(f.String(), "diagnose") || !strings.Contains(f.String(), "?p=p1") {
		t.Errorf("rendering = %q", f.String())
	}
	// Seq counts the engine's firings, also those nobody recorded.
	e.OnFiring = nil
	e.AssertF("violation", "p2")
	e.AssertF("reading", "p2", "buffer_size", 9)
	mustRun(t, e)
	e.OnFiring = func(f Firing) { tr = append(tr, f) }
	e.AssertF("violation", "p3")
	e.AssertF("reading", "p3", "buffer_size", 10)
	mustRun(t, e)
	if len(tr) != 2 || tr[1].Seq != 3 || tr[1].Bindings["?p"] != "p3" {
		t.Errorf("firings after a silent one = %+v", tr)
	}
}
