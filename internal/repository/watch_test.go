package repository

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/telemetry"
)

func TestHubGenerationChain(t *testing.T) {
	var sent []struct {
		to string
		d  msg.PolicyDelta
	}
	hub := NewHub("/repo/hub", func(to string, m msg.Message) error {
		d := m.Body.(msg.PolicyDelta)
		sent = append(sent, struct {
			to string
			d  msg.PolicyDelta
		}{to, d})
		return nil
	}, obs.Kit{})
	hub.Subscribe("/z/sub", "/a/sub", "/a/sub") // duplicate is a no-op

	g1, err := hub.Announce("mpeg_play", "fleet", nil, nil, "r1", telemetry.TraceContext{})
	if err != nil || g1 != 1 {
		t.Fatalf("announce 1: gen=%d err=%v", g1, err)
	}
	g2, err := hub.Announce("mpeg_serve", "fleet", nil, nil, "r2", telemetry.TraceContext{})
	if err != nil || g2 != 2 {
		t.Fatalf("announce 2: gen=%d err=%v", g2, err)
	}
	g3, err := hub.Announce("mpeg_play", "fleet", nil, nil, "r3", telemetry.TraceContext{})
	if err != nil || g3 != 3 {
		t.Fatalf("announce 3: gen=%d err=%v", g3, err)
	}
	// Generations are hub-wide; Prev chains per executable. Two
	// subscribers, each sent every delta once.
	if len(sent) != 6 {
		t.Fatalf("sent %d deltas", len(sent))
	}
	// Fan-out is in sorted subscriber order.
	if sent[0].to != "/a/sub" || sent[1].to != "/z/sub" {
		t.Fatalf("fan-out order: %q then %q", sent[0].to, sent[1].to)
	}
	if d := sent[4].d; d.Executable != "mpeg_play" || d.Generation != 3 || d.Prev != 1 {
		t.Fatalf("third delta = %+v", d)
	}
	if d := sent[2].d; d.Executable != "mpeg_serve" || d.Generation != 2 || d.Prev != 0 {
		t.Fatalf("second delta = %+v", d)
	}
	if hub.Generation("mpeg_play") != 3 || hub.Generation("mpeg_serve") != 2 {
		t.Fatalf("generations: play=%d serve=%d",
			hub.Generation("mpeg_play"), hub.Generation("mpeg_serve"))
	}
}

func TestHubRejectsInvalidDelta(t *testing.T) {
	hub := NewHub("/repo/hub", func(string, msg.Message) error { return nil }, obs.Kit{})
	hub.Subscribe("/a/sub")
	// Canary scope without hosts is invalid on the wire; the hub must
	// reject it before burning a generation.
	if _, err := hub.Announce("mpeg_play", "canary", nil, nil, "r", telemetry.TraceContext{}); err == nil {
		t.Fatal("canary without hosts accepted")
	}
	if hub.Generation("mpeg_play") != 0 {
		t.Fatal("invalid announce consumed a generation")
	}
	if _, err := hub.Announce("mpeg_play", "sideways", nil, nil, "r", telemetry.TraceContext{}); err == nil {
		t.Fatal("unknown scope accepted")
	}
}

func TestHubCountsNotifyFailures(t *testing.T) {
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	hub := NewHub("/repo/hub", func(to string, m msg.Message) error {
		if to == "/dead/sub" {
			return fmt.Errorf("unbound")
		}
		return nil
	}, obs.Kit{Metrics: reg})
	hub.Subscribe("/dead/sub", "/live/sub")
	gen, err := hub.Announce("mpeg_play", "fleet", nil, nil, "r", telemetry.TraceContext{})
	if err == nil || !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("err = %v", err)
	}
	if gen != 1 {
		t.Fatalf("gen = %d (a partial fan-out still consumes its generation)", gen)
	}
	if n := reg.Counter("repo.hub.deltas_sent").Value(); n != 1 {
		t.Fatalf("deltas_sent = %d", n)
	}
	if n := reg.Counter("repo.hub.notify_failures").Value(); n != 1 {
		t.Fatalf("notify_failures = %d", n)
	}
}

// TestHubAnnounceSendsOutsideLock pins the fan-out locking contract:
// one hung subscriber (a stalled TCP peer) must not block Generation,
// Subscribe, or anything else reading hub state — the generation is
// allocated under the lock, the sends happen outside it.
func TestHubAnnounceSendsOutsideLock(t *testing.T) {
	started := make(chan struct{})
	block := make(chan struct{})
	hub := NewHub("/repo/hub", func(to string, m msg.Message) error {
		close(started)
		<-block
		return nil
	}, obs.Kit{})
	hub.Subscribe("/slow/sub")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = hub.Announce("mpeg_play", "fleet", nil, nil, "r", telemetry.TraceContext{})
	}()
	<-started // the send is now in flight, hung on the subscriber

	got := make(chan uint64, 1)
	go func() { got <- hub.Generation("mpeg_play") }()
	select {
	case g := <-got:
		if g != 1 {
			t.Fatalf("generation = %d, want 1 (allocated before the send)", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Generation blocked behind a hung subscriber send")
	}

	subscribed := make(chan struct{})
	go func() { hub.Subscribe("/other/sub"); close(subscribed) }()
	select {
	case <-subscribed:
	case <-time.After(5 * time.Second):
		t.Fatal("Subscribe blocked behind a hung subscriber send")
	}

	close(block)
	<-done
}

// TestConcurrentEnsureParents pins the fix for the check-then-add race:
// EnsureParents used to probe each ancestor and insert it in separate
// critical sections, so two concurrent callers could both see it
// missing and one would get a spurious "entry already exists" error.
func TestConcurrentEnsureParents(t *testing.T) {
	d := NewDirectory(nil)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dn := DN(fmt.Sprintf("cn=leaf-%d,ou=deep,ou=nested,o=qos", w))
			if err := d.EnsureParents(dn); err != nil {
				errs <- fmt.Errorf("worker %d: EnsureParents: %w", w, err)
				return
			}
			e := NewEntry(dn).Set("objectClass", "device").Set("cn", fmt.Sprintf("leaf-%d", w))
			if err := d.Add(e); err != nil {
				errs <- fmt.Errorf("worker %d: Add: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(d.Search(DN("ou=deep,ou=nested,o=qos"), ScopeOne, nil)); got != workers {
		t.Fatalf("got %d leaves, want %d", got, workers)
	}
}

// TestConcurrentWatchSubscribers drives the full repository surface —
// service writes, service reads, attribute modifications, hub
// subscription churn and delta announcements — from concurrent
// goroutines. Run under -race it is the audit for unlocked shared state
// on the watch/notify path.
func TestConcurrentWatchSubscribers(t *testing.T) {
	dir := NewDirectory(QoSSchema())
	svc := newTestService(t, LocalStore{dir})
	storeExample1(t, svc, "")
	hub := NewHub("/repo/hub", func(string, msg.Message) error { return nil }, obs.Kit{})

	const iters = 60
	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Subscriptions, new and repeated, while deltas fan out.
	run(func(i int) error {
		hub.Subscribe(fmt.Sprintf("/sub/%d", i%8))
		return nil
	})
	// Delta announcements.
	run(func(i int) error {
		_, err := hub.Announce("mpeg_play", "fleet", nil, nil,
			fmt.Sprintf("r%d", i), telemetry.TraceContext{})
		return err
	})
	// Policy reads.
	run(func(i int) error {
		_, err := svc.PoliciesFor(msg.Identity{Executable: "mpeg_play"})
		return err
	})
	// Rule-set writes (StoreRuleSet exercises Add-then-Modify).
	run(func(i int) error {
		return svc.StoreRuleSet("rs", "host-manager", fmt.Sprintf("rules %d", i))
	})
	// Attribute modifications on a shared entry.
	dn := DN("cn=mod-target,ou=rulesets,o=qos")
	if err := dir.EnsureParents(dn); err != nil {
		t.Fatal(err)
	}
	if err := dir.Add(NewEntry(dn).Set("objectClass", "qosRuleSet").
		Set("cn", "mod-target").Set("qosRuleText", "x").
		Set("qosManagerRole", "host-manager")); err != nil {
		t.Fatal(err)
	}
	run(func(i int) error {
		return dir.ModifyAttrs(dn, Mod{Op: ModReplace, Attr: "qosRuleText",
			Values: []string{fmt.Sprintf("v%d", i)}})
	})
	// Searches over the mutating tree.
	run(func(i int) error {
		dir.Search(BaseDN, ScopeSub, nil)
		return nil
	})
	// EnsureParents over contended ancestors.
	run(func(i int) error {
		return dir.EnsureParents(DN(fmt.Sprintf("cn=c-%d,ou=contended,o=qos", i)))
	})
	wg.Wait()

	if hub.Generation("mpeg_play") != iters {
		t.Fatalf("announced %d generations, want %d", hub.Generation("mpeg_play"), iters)
	}
}
