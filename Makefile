# Tier-1 verification for the softqos repository.
#
# `make check` is the gate every change must pass: build everything,
# vet, and run the full test suite under the race detector. The
# simulation core is single-threaded by design, but the TCP transport,
# the live managers and the telemetry registry are concurrent — the
# race detector is part of the contract, not an optional extra.

GO ?= go

.PHONY: all build vet test race check bench bench-diff bench-smoke profile-episode profile-fleet examples lint-log lint-api live-smoke trace-smoke fleet-smoke policy-smoke soak clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Compile every runnable entry point (the examples and qosd) so a
# library refactor cannot silently break them.
examples:
	$(GO) build ./examples/... ./cmd/...

# Tier-1 tests: always run with -race.
test: race

race:
	$(GO) test -race ./...

check: build vet lint-log lint-api examples race trace-smoke fleet-smoke policy-smoke soak bench-smoke

# Library code must never print: diagnostics go through the structured
# event log (internal/telemetry/eventlog) or the telemetry registry, so
# they stay bounded, leveled and trace-correlated. Commands and tests
# may print; internal/ packages may not.
lint-log:
	@bad=$$(grep -rnE '\b(log\.(Print|Printf|Println|Fatal|Fatalf|Fatalln|Panic|Panicf|Panicln)|fmt\.(Print|Printf|Println))\(' internal/ --include='*.go' | grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-log: stray stdlib printing in internal/ — route through eventlog or telemetry:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "lint-log: ok"

# One API, without the switches and hooks that were deleted so they
# cannot grow back unnoticed: the wire-format knobs, hello negotiation
# and byte-preserving trace switch (one wire); the exact-sample
# Histogram, the fleet's LatencyRecorder fork and the wall-clock
# profiling switch (one quantile type — LiveCoordinator.WallClock is the
# coordinator's own clock accessor and is not matched); the telemetry
# opt-outs (trace retention, timeline series cap), the transport's
# drop/log hooks, the second TCP server, and the knobs no caller set
# (one value, one constant); the rule engine's second inference path
# and trace buffer and the rule-set wrappers nothing called (Prove,
# Engine.Explain, SetTracing/ClearTrace, LoadNamedRules, RulesFor,
# RuleSetsFor, ImportLDIF — NamedRulesFor, NamedRuleSetsFor and the
# telemetry Tracer's Explain are not matched); and the post-construction
# telemetry setters whose components now take an obs.Kit at construction,
# matched on their receivers so the same-named setters the benchmark
# harness still calls (the Live* wrappers', NetTransport's) stay legal;
# and scenario.Config.PolicySrc, which no program set (a test swaps the
# stored policy through System.Admin instead).
# The one allowed NewHistogram is the shim
# the frozen benchmark/ sources still call; benchmark/ is excluded
# (its sources are frozen and mention old names in comments).
#
# It also pins the count of exported Set*/Enable* methods outside
# benchmark/ at API_SETTERS_MAX: a new post-construction setter must
# replace one, or be configuration at construction instead.
#
# It fails when gofmt would reformat any Go file of the repository.
#
# It pins one video-application information model: DefineExecutable of
# mpeg_play may appear in one non-test file outside examples/ (which
# teach the public API with their own model) and benchmark/ — the body
# of mgmt.DefineVideoModel, which every other program calls.
#
# Last, it runs the export census (census_test.go): a type-checked walk
# of the reference graph from every main, init, var initialiser, the
# root package's API, the benchmark/ harness's references and the
# interface-satisfying methods. An unreachable func outside the root
# package fails it unless testdata/census.txt pins it with a reason, and
# that list only shrinks.
API_SETTERS_MAX = 47
API_DELETED = SetWireFormat|helloFrame|peerBin|NoTracePropagation|SetTracePropagation|SetWallClock|LatencyRecorder|\.Histogram\(|NewHistogram\(|(reg|registry|Metrics)\.WallClock\(\)|Registry\) WallClock\(|SetDropLogger|SetLogf|DropInfo|SetRetention|SetMaxSeries|SetOnDirective|SetCPUTimeFunc|SeverityFor|NoBatching|MaxFastBurn|unbounded-telemetry|msg\.Serve\(|\bProve(All)?\(|\bLoadNamedRules\b|\bSetTracing\b|\bClearTrace\b|Engine\) Explain\(|\b(RuleSets|Rules)For\(|\bImportLDIF\b|\bPolicySrc\b|$(API_DELETED_SETTERS)
API_DELETED_SETTERS = \*(LivePolicyServer|LiveCoordinator|Hub|AlarmCoalescer|HostManager|DomainManager|PolicyAgent)\) Set(Telemetry|EventLog)\(|\*Controller\) Set(Tracer|Telemetry|EventLog)\(|\*Transport\) Set(Metrics|Tracer|EventLog)\(|\*(SummaryAggregator|RegionManager)\) SetTelemetry\(|\*(Host|Network)\) SetMetrics\(
lint-api:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "lint-api: gofmt would reformat:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@bad=$$(grep -rnE '$(API_DELETED)' --include='*.go' --exclude-dir=benchmark --exclude-dir=.git --exclude-dir=.bench_build . \
		| grep -v 'internal/telemetry/sketch.go:.*func NewHistogram(Clock, time.Duration) \*Sketch { return NewSketch() }' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-api: a deleted switch, hook or fork is back:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@models=$$(grep -rlF 'DefineExecutable("mpeg_play"' --include='*.go' --exclude='*_test.go' \
		--exclude-dir=benchmark --exclude-dir=examples --exclude-dir=.git --exclude-dir=.bench_build .); \
	if [ $$(echo "$$models" | grep -c .) -gt 1 ]; then \
		echo "lint-api: the video model is typed out more than once — call mgmt.DefineVideoModel:"; \
		echo "$$models"; \
		exit 1; \
	fi
	@n=$$(grep -rhE '^func \([^)]*\) (Set|Enable)[A-Z]' --include='*.go' --exclude='*_test.go' \
		--exclude-dir=benchmark --exclude-dir=.git --exclude-dir=.bench_build . | wc -l); \
	if [ "$$n" -gt $(API_SETTERS_MAX) ]; then \
		echo "lint-api: $$n exported Set*/Enable* methods outside benchmark/, ceiling $(API_SETTERS_MAX)"; \
		exit 1; \
	fi; \
	echo "lint-api: ok ($$n exported Set*/Enable* methods, ceiling $(API_SETTERS_MAX))"
	$(GO) test -count=1 -run '^TestCensus' .

# The resilience gate: seeded chaos soaks — hundreds of violation
# episodes under a randomized fault schedule on the sim Bus, plus the
# live-TCP soak with a mid-run manager restart — under the race
# detector. Every episode must recover or be abandoned with a traced
# reason; a silently stalled episode fails the gate.
soak:
	$(GO) test -race -timeout 120s -v -run 'TestSoakSim|TestSoakReproducible|TestLiveSoak' ./internal/scenario .

# The live-mode gate: the full control loop (register -> violation ->
# rule firing -> directive -> recovery) over real TCP, plus the live
# manager wiring tests, under the race detector with a short timeout.
live-smoke:
	$(GO) test -race -timeout 60s -v -run 'TestLiveEndToEndControlLoop|TestLiveHostManager|TestFullLiveStack' .

# The observability gate: a live session with the HTTP export surface
# attached — drive a violation to recovery over TCP, scrape /metrics
# (must parse as Prometheus text) and /debug/qos (must export the
# unified causal tree with rule-firing explanations), then the SLO
# surface: /debug/qos/slo must show compliance dipping below 1.0 while
# the induced violation is open and climbing back after recovery.
trace-smoke:
	$(GO) test -race -timeout 120s -v -run 'TestLiveObservabilityEndpoints|TestLiveSLOCompliance' .

# The policy-distribution gate: live TCP end to end — policyctl's wire
# path pushes a policy that reaches the running coordinator without a
# restart, a compliant canary bakes and promotes, an unattainable one
# breaches its burn rate and auto-rolls back (status via policyctl,
# state on /debug/qos) — plus the seeded policy-churn determinism tier
# (generations pushed mid-run under randomized faults must converge
# byte-identically) and the fleet simulator's hierarchical delta relay.
policy-smoke:
	$(GO) test -race -timeout 180s -v -run 'TestLivePolicyRollout|TestPolicyChurn|TestFleetPolicy' ./internal/scenario .

# The fleet-scale gate: assemble the three-tier hierarchy at 1000
# hosts, simulate two minutes of virtual time (sub-second wall), and
# require a healthy run — every tier registered, >=90% of load spikes
# adapted, detect->adapt p99 under a second, and region-side alarm
# accounting exact. The second line re-runs at 10k hosts with the
# federated telemetry plane armed: the region must reconstruct the
# fleet view from domain aggregates alone, within the per-host heap
# budget, and serve each debug payload under the size cap. Bounded
# wall-clock by construction: the simulation is event-driven, not
# real-time.
fleet-smoke:
	$(GO) run ./cmd/qosfleet -hosts 1000 -duration 2m -check
	$(GO) run ./cmd/qosfleet -hosts 10000 -procs 10 -duration 2m -federate -eventlog -check

# The benchmark gate: the benchmark/ harness (its own module, built
# against this checkout) must still vet, pass its tests, and run every
# workload it declares to a correct result — "correct":true and no failed
# operation — on a short --quick pass. A change to the API the harness
# calls, or to the behaviour its correctness gates check, fails here.
BENCH_WORKLOADS = live_local live_escalate fleet_sim

bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .
	@for w in $(BENCH_WORKLOADS); do \
		out=$$(bash benchmark/run.sh --quick --seconds 3 --workload $$w) || { echo "$$out"; echo "bench-smoke: $$w exited non-zero"; exit 1; }; \
		if ! echo "$$out" | grep -q '"correct":true' || ! echo "$$out" | grep -q ', failed 0$$'; then \
			echo "$$out"; echo "bench-smoke: $$w failed its correctness gates"; exit 1; \
		fi; \
		echo "bench-smoke: $$w ok"; \
	done

# Perf trajectory: `make bench` runs the micro-benchmarks (hot-path
# packages and the root package's microsecond-scale benchmarks at a stable
# benchtime — one iteration of a 2 µs episode times the clock, not the
# code — and the macro scenario benchmarks once) and
# records the next-numbered BENCH_<n>.json snapshot via cmd/benchfmt,
# which adds the non-test LOC per package. `make bench-diff` compares
# the two newest snapshots, fails on a >20% ns/op or allocs/op
# regression in the gated hot-path benchmarks, and prints the
# benchmarks that vanished and the LOC delta.
# One P, like every committed snapshot: on a shared VM a second P times
# the hypervisor's vCPU wake-ups (TCP round trips double), not the code.
BENCHTIME ?= 200ms
TIMED = InstrumentationPass|InferenceEpisode|InferenceLookupBaseline|RuleEngineAgenda|LiveEscalateEpisode

bench: export GOMAXPROCS = 1
bench:
	( $(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) \
	      ./internal/msg ./internal/rules ./internal/telemetry \
	      ./internal/telemetry/eventlog \
	      ./internal/telemetry/export ./internal/netsim \
	      ./internal/repository ./internal/agent ./internal/sim ; \
	  $(GO) test -run='^$$' -bench='^Benchmark($(TIMED))$$' \
	      -benchmem -benchtime=$(BENCHTIME) . ; \
	  $(GO) test -run='^$$' -bench=. -skip='^Benchmark($(TIMED))$$' -benchmem -benchtime=1x . ) | $(GO) run ./cmd/benchfmt -dir .

bench-diff:
	$(GO) run ./cmd/benchfmt -diff -dir .

# Where one escalated live episode spends CPU and allocates: the
# four-message, three-node episode of BenchmarkLiveEscalateEpisode over
# loopback TCP on one P — the only driver of that path outside the frozen
# benchmark/ — under the CPU and allocation profilers. Test binary and
# profiles land in .bench_build/ (git-ignored); the top ten sites of each
# are printed, and docs/WIRE.md carries the table they were read from.
profile-episode: export GOMAXPROCS = 1
profile-episode:
	mkdir -p .bench_build
	$(GO) test -run='^$$' -bench='^BenchmarkLiveEscalateEpisode$$' -benchtime=200000x -benchmem \
	    -o .bench_build/episode.test -outputdir .bench_build \
	    -cpuprofile episode.cpu -memprofile episode.mem .
	$(GO) tool pprof -top -nodecount=10 .bench_build/episode.test .bench_build/episode.cpu
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=10 .bench_build/episode.test .bench_build/episode.mem

# Where a fleet run spends CPU and allocates: BenchmarkFleetSim, the exact
# configuration of the benchmark's fleet_sim workload (10 000 hosts,
# federated telemetry, event log, three policy generations, two virtual
# minutes), on one P under the CPU and allocation profilers. Test binary
# and profiles land in .bench_build/; the top ten CPU sites and the top
# ten allocation sites by object count are printed, and docs/FLEET.md
# carries the table they were read from.
profile-fleet: export GOMAXPROCS = 1
profile-fleet:
	mkdir -p .bench_build
	$(GO) test -run='^$$' -bench='^BenchmarkFleetSim$$' -benchtime=3x -benchmem \
	    -o .bench_build/fleet.test -outputdir .bench_build \
	    -cpuprofile fleet.cpu -memprofile fleet.mem .
	$(GO) tool pprof -top -nodecount=10 .bench_build/fleet.test .bench_build/fleet.cpu
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=10 .bench_build/fleet.test .bench_build/fleet.mem

clean:
	$(GO) clean ./...
