package core_test

// Fault-timeline equivalence and determinism tests. An empty timeline
// must reproduce the pristine goldens bit for bit (the swap path adds
// nothing to a run with no events); a timeline whose only events fire
// at cycle 0 must reproduce the faulted goldens (TestGoldenHashFaulted
// builds them the same way, through a shared helper).
// Another test pins a fail-then-recover run to identical results across
// worker-pool sizes.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/parallel"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// timelineHash runs the given scenario set on the 72-node golden
// network with tl attached and returns the combined FNV-1a hash, using
// the same recipe and result folding as the static golden tests.
func timelineHash(t *testing.T, seed uint64, tl *fault.Timeline, runs []goldenRun) string {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sched, err := tl.Compile(sys.Topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sys, err = sys.WithTimeline(sched)
	if err != nil {
		t.Fatalf("WithTimeline: %v", err)
	}
	h := fnv.New64a()
	for _, r := range runs {
		res, err := sys.Run(r.alg, core.Workload{Traffic: r.pattern}, r.load, goldenRC())
		if err != nil {
			t.Fatalf("seed %d %s/%s@%.2f: %v", seed, r.alg, r.pattern, r.load, err)
		}
		hashResult(h, fmt.Sprintf("%s/%s@%.2f", r.alg, r.pattern, r.load), res)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTimelineEmptyMatchesPristineGolden pins the no-event timeline to
// the static pristine goldens: installing the epoch machinery with
// nothing scheduled must not perturb a single bit of the results.
func TestTimelineEmptyMatchesPristineGolden(t *testing.T) {
	runs := []goldenRun{
		{core.AlgMIN, "UR", 0.3},
		{core.AlgVAL, "WC", 0.2},
		{core.AlgUGALLVCH, "UR", 0.3},
		{core.AlgUGALLVCH, "WC", 0.25},
	}
	for seed, want := range goldenPristine {
		got := timelineHash(t, seed, fault.NewTimeline(seed), runs)
		if got != want {
			t.Errorf("seed %d: empty-timeline hash %s, want pristine golden %s", seed, got, want)
		}
	}
}

// TestTimelineCycleZeroMatchesFaultedGolden pins a cycle-0-only
// timeline, built and attached here through the public Timeline →
// Compile → WithTimeline path rather than the golden tests' helper, to
// the faulted goldens: "fail 10% of globals at cycle 0" is one epoch
// at Start 0 and must reproduce those results bit for bit.
func TestTimelineCycleZeroMatchesFaultedGolden(t *testing.T) {
	runs := []goldenRun{
		{core.AlgMIN, "UR", 0.2},
		{core.AlgUGALL, "UR", 0.25},
		{core.AlgVAL, "WC", 0.15},
	}
	for seed, want := range goldenFaulted {
		tl := fault.NewTimeline(seed).FailFractionAt(0, topology.ClassGlobal, 0.10)
		got := timelineHash(t, seed, tl, runs)
		if got != want {
			t.Errorf("seed %d: cycle-0 timeline hash %s, want faulted golden %s", seed, got, want)
		}
	}
}

// failRecoverSystem builds the golden network, partitioned into the
// given number of engine shards, with a mid-run timeline: six global
// channels and one router die at cycle 200, everything recovers at
// cycle 800 — both event cycles land inside the golden recipe's
// warm-up + measurement window.
func failRecoverSystem(t *testing.T, seed uint64, shards int) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: seed, Shards: shards})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	tl := fault.NewTimeline(seed).
		FailChannelsAt(200, topology.ClassGlobal, 6).
		FailRouterAt(200, 5).
		RecoverAllAt(800)
	sched, err := tl.Compile(sys.Topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sys, err = sys.WithTimeline(sched)
	if err != nil {
		t.Fatalf("WithTimeline: %v", err)
	}
	return sys
}

// TestTimelineDeterministicAcrossPools runs the fail-then-recover sweep
// on one worker and on four and requires bit-identical points — the
// epoch swaps consult only per-network state, so pool size must not
// leak into results.
func TestTimelineDeterministicAcrossPools(t *testing.T) {
	sys := failRecoverSystem(t, 1, 0)
	loads := []float64{0.1, 0.2, 0.3}
	sweep := func(pool *parallel.Pool) []core.SweepPoint {
		pts, err := sys.Sweep(pool, core.AlgUGALL, core.Workload{Traffic: "ur"}, loads, goldenRC(), 0)
		if err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		return pts
	}
	one := sweep(parallel.New(1))
	four := sweep(parallel.New(4))
	if len(one) != len(four) {
		t.Fatalf("point counts differ: %d vs %d", len(one), len(four))
	}
	var killed int64
	for i := range one {
		a, b := fnv.New64a(), fnv.New64a()
		hashResult(a, "pt", one[i].Result)
		hashResult(b, "pt", four[i].Result)
		if a.Sum64() != b.Sum64() {
			t.Errorf("load %.2f: results differ between 1 and 4 workers", one[i].Load)
		}
		if one[i].Result.KilledInFlight != four[i].Result.KilledInFlight ||
			one[i].Result.Rerouted != four[i].Result.Rerouted ||
			one[i].Result.Dropped != four[i].Result.Dropped {
			t.Errorf("load %.2f: fault accounting differs between pools (killed %d/%d rerouted %d/%d dropped %d/%d)",
				one[i].Load,
				one[i].Result.KilledInFlight, four[i].Result.KilledInFlight,
				one[i].Result.Rerouted, four[i].Result.Rerouted,
				one[i].Result.Dropped, four[i].Result.Dropped)
		}
		killed += one[i].Result.KilledInFlight
	}
	if killed == 0 {
		t.Error("no packet killed by the fail event: the timeline never fired")
	}
}

// TestTimelineInvariantsAcrossRevive steps one network through the
// fail and recover events by hand and checks the per-(link, VC) credit
// conservation law after each: the fail epoch must leave every
// surviving link balanced, and the revival reconciliation must restore
// the law on the retrained links.
func TestTimelineInvariantsAcrossRevive(t *testing.T) {
	sys := failRecoverSystem(t, 2, 0)
	net, err := sys.NewNetworkFor(core.AlgUGALL, core.Workload{Traffic: "ur"})
	if err != nil {
		t.Fatalf("NewNetworkFor: %v", err)
	}
	net.SetLoad(0.3)
	step := func(until int) {
		t.Helper()
		for i := 0; i < until; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
	}
	if got := net.ActiveEpoch(); got != 0 {
		t.Fatalf("epoch before any event: %d, want 0", got)
	}
	step(400) // past the fail event at cycle 200
	if got := net.ActiveEpoch(); got != 1 {
		t.Fatalf("epoch after fail event: %d, want 1", got)
	}
	if err := net.CheckFlowInvariants(); err != nil {
		t.Fatalf("invariants after fail epoch: %v", err)
	}
	if net.KilledInFlight() == 0 {
		t.Error("fail event killed nothing at load 0.3")
	}
	step(600) // past the recover event at cycle 800
	if got := net.ActiveEpoch(); got != 2 {
		t.Fatalf("epoch after recover event: %d, want 2", got)
	}
	if err := net.CheckFlowInvariants(); err != nil {
		t.Fatalf("invariants after revive reconciliation: %v", err)
	}
	step(400) // keep running on the recovered network
	if err := net.CheckFlowInvariants(); err != nil {
		t.Fatalf("invariants in steady state after recovery: %v", err)
	}
}

// TestWithTimelineRejections covers the misuse error — attaching a
// schedule compiled against a different topology — and clearing.
func TestWithTimelineRejections(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sched, err := fault.NewTimeline(1).FailChannelsAt(100, topology.ClassGlobal, 1).Compile(sys.Topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	other, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := other.WithTimeline(sched); err == nil {
		t.Error("schedule compiled against another topology accepted")
	}

	cleared, err := sys.WithTimeline(nil)
	if err != nil {
		t.Fatalf("WithTimeline(nil): %v", err)
	}
	if cleared.Timeline() != nil {
		t.Error("WithTimeline(nil) did not clear the schedule")
	}

	ts, err := sys.WithTimeline(sched)
	if err != nil {
		t.Fatalf("WithTimeline: %v", err)
	}
	if ts.Timeline() != sched {
		t.Error("Timeline() does not return the attached schedule")
	}
	if _, err := ts.Run(core.AlgMIN, core.Workload{Traffic: "ur"}, 0.1, sim.RunConfig{WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 10000}); err != nil {
		t.Errorf("timeline run failed: %v", err)
	}
}
