package rules

import (
	"fmt"
	"testing"
)

// checkSpareFacts is the invariant fact reuse rests on: a fact waiting
// for reuse is reachable from nothing the engine matches over. Free facts
// are blank and named nowhere; unlisted ones are retracted, in no memory
// and in no index, and only a not-yet-re-matched conflict set may still
// name them. The buffers a re-match swaps hold nothing between re-matches.
func checkSpareFacts(t *testing.T, e *Engine) {
	t.Helper()
	free, unlisted := map[*Fact]bool{}, map[*Fact]bool{}
	for _, f := range e.free {
		free[f] = true
		if f.id != 0 || f.items != nil || f.next != nil || f.gone || f.shared || f.listed != 0 {
			t.Fatalf("free fact is not blank: %+v", f)
		}
	}
	for _, f := range e.unlisted {
		unlisted[f] = true
		if !f.gone || f.shared || f.listed != 0 {
			t.Fatalf("unlisted fact %d: gone %v shared %v listed %d", f.id, f.gone, f.shared, f.listed)
		}
	}
	if len(free) != len(e.free) || len(unlisted) != len(e.unlisted) {
		t.Fatalf("a fact waits for reuse twice: free %d/%d, unlisted %d/%d", len(free), len(e.free), len(unlisted), len(e.unlisted))
	}
	spare := func(where string, f *Fact) {
		t.Helper()
		if free[f] || unlisted[f] {
			t.Fatalf("%s still names a fact waiting for reuse (free %v, unlisted %v)", where, free[f], unlisted[f])
		}
	}
	for id, f := range e.facts {
		spare(fmt.Sprintf("facts[%d]", id), f)
	}
	for _, head := range e.byHash {
		for f := head; f != nil; f = f.next {
			spare("a hash chain", f)
		}
	}
	mems := map[string]*memory{"working memory": &e.all}
	for k, m := range e.mems {
		mems[fmt.Sprintf("memory %s/%d", k.rel, k.arity)] = m
	}
	for name, m := range mems {
		dead := 0
		for _, f := range m.facts {
			spare(name, f)
			if f.gone {
				dead++
			}
		}
		if dead != m.dead {
			t.Fatalf("%s counts %d dead facts, holds %d", name, m.dead, dead)
		}
		if n := len(m.facts); n > 0 && m.facts[n-1].gone {
			t.Fatalf("%s ends in a dead fact", name)
		}
	}
	for r, st := range e.state {
		for _, f := range st.set.tuples {
			if free[f] || (!st.dirty && unlisted[f]) {
				t.Fatalf("rule %s (dirty %v) has an activation over a fact waiting for reuse", e.prog.rules[r].Name, st.dirty)
			}
		}
	}
	for _, buf := range [][]*Fact{e.old.tuples[:cap(e.old.tuples)], e.spare.tuples[:cap(e.spare.tuples)]} {
		for _, f := range buf {
			if f != nil {
				t.Fatal("a re-match buffer kept a fact pointer")
			}
		}
	}
}

// TestRetractedFactsAreReused: a diagnosis episode at a large resident
// working memory — the host manager's shape, thousands of proc-role
// facts and six episode facts asserted last — allocates no fact in steady
// state, leaves no tombstone behind in any memory, and still numbers its
// facts afresh; a fact a caller was handed is never reused.
func TestRetractedFactsAreReused(t *testing.T) {
	e := mustLoad(t, diagRules)
	seedResidentFacts(e, 4096)
	resident := len(e.all.facts)
	var ids [2]int
	episode := func() {
		ids[0] = e.Assert(Sym("violation"), Sym("p1"), Sym("P"))
		ids[1] = e.Assert(Sym("reading"), Sym("p1"), Sym("buffer_size"), Num(12))
		if n := mustRun(t, e); n != 1 {
			t.Fatalf("episode fired %d rules, want 1", n)
		}
		e.Retract(ids[0]) // oldest first: the worst order for dropping from the tail
		e.Retract(ids[1])
		e.RetractMatching(Sym("diagnosis"), Sym("?"), Sym("?"))
	}
	for i := 0; i < 8; i++ {
		episode()
		checkSpareFacts(t, e)
		if len(e.all.facts) != resident || e.all.dead != 0 {
			t.Fatalf("episode %d left working memory at %d facts (%d dead), want %d (0)", i, len(e.all.facts), e.all.dead, resident)
		}
	}
	last := ids[1]
	if got := testing.AllocsPerRun(200, episode); got != 0 {
		t.Errorf("episode: %.0f allocs, want 0", got)
	}
	if ids[1] <= last {
		t.Errorf("fact ids stopped advancing: %d after %d", ids[1], last)
	}

	held := e.FactsMatching(F("state-0", "?", "?")...)[0]
	want := held.String()
	e.Retract(held.ID())
	for i := 0; i < 200; i++ {
		episode()
	}
	if got := held.String(); got != want || held.ID() == 0 {
		t.Errorf("a fact handed out changed after its retraction: %s, was %s", got, want)
	}
	checkSpareFacts(t, e)
}
