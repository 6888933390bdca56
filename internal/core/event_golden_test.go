package core_test

// Event-stream golden: the full ordered sequence of collector events a
// serial run emits — every event kind, hop records and ejections
// included — is folded into one digest. Result goldens pin what a run
// measures; this pins the order in which a collector observes it, so a
// change to how the engine emits or buffers events cannot reorder the
// stream unnoticed. The scenario is a fault timeline that kills a
// router mid-run, so the stream also carries link-state, kill, reroute
// and swap-time drop events interleaved with the epoch switch.

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// goldenEventStream is the digest of the scenario's event stream.
const goldenEventStream = "26e14623ad14173c"

// eventRecorder hashes every event it observes, in arrival order, and
// counts them per kind.
type eventRecorder struct {
	w      io.Writer
	counts map[string]int
	// swapDrops counts drops observed between a link-state change and
	// the epoch switch that follows it: drops raised while an epoch
	// swap rescues packets, before the cycle's pipeline runs.
	swapDrops int
	inSwap    bool
}

func (r *eventRecorder) emit(kind, format string, args ...any) {
	r.counts[kind]++
	fmt.Fprintf(r.w, kind+" "+format+"\n", args...)
}

func (r *eventRecorder) ChannelFlit(link int) { r.emit("flit", "%d", link) }
func (r *eventRecorder) VCOccupancy(router, port, vc, occ int) {
	r.emit("occ", "%d %d %d %d", router, port, vc, occ)
}
func (r *eventRecorder) CreditRTT(router, port int, rtt int64) {
	r.emit("rtt", "%d %d %d", router, port, rtt)
}
func (r *eventRecorder) Drop(router int) {
	if r.inSwap {
		r.swapDrops++
	}
	r.emit("drop", "%d", router)
}
func (r *eventRecorder) Stall(cycle int64)  { r.emit("stall", "%d", cycle) }
func (r *eventRecorder) Kill(router int)    { r.emit("kill", "%d", router) }
func (r *eventRecorder) Reroute(router int) { r.emit("reroute", "%d", router) }
func (r *eventRecorder) EpochSwitch(cycle int64, epoch int) {
	r.inSwap = false
	r.emit("epoch", "%d %d", cycle, epoch)
}
func (r *eventRecorder) CycleEnd(cycle int64) { r.emit("cycle", "%d", cycle) }
func (r *eventRecorder) PacketEjected(e metrics.Eject) {
	r.emit("eject", "%+v", e)
}
func (r *eventRecorder) PacketHop(h metrics.Hop) { r.emit("hop", "%+v", h) }
func (r *eventRecorder) LinkState(link int, alive bool, cycle int64) {
	r.inSwap = true
	r.emit("link", "%d %v %d", link, alive, cycle)
}

// TestEventStreamGolden runs MIN worst-case traffic past saturation
// under a fail-then-recover timeline on the 72-node golden network (the
// deep queues give the swaps packets to reroute) and pins the digest of its complete
// event stream.
func TestEventStreamGolden(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{P: 2, A: 4, H: 2, Seed: 1})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	tl := fault.NewTimeline(1).
		FailChannelsAt(200, topology.ClassGlobal, 6).
		FailChannelsAt(250, topology.ClassLocal, 6).
		FailRouterAt(300, 5).
		RecoverAllAt(700)
	sched, err := tl.Compile(sys.Topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if sys, err = sys.WithTimeline(sched); err != nil {
		t.Fatalf("WithTimeline: %v", err)
	}
	net, err := sys.NewNetworkFor(core.AlgMIN, core.Workload{Traffic: "wc"})
	if err != nil {
		t.Fatalf("NewNetworkFor: %v", err)
	}
	h := fnv.New64a()
	rec := &eventRecorder{w: h, counts: map[string]int{}}
	net.AttachMetrics(rec)
	rc := sim.RunConfig{Load: 0.3, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 5000}
	res, err := sim.Run(net, rc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	hashResult(h, "result", res)
	for _, kind := range []string{"flit", "occ", "rtt", "drop", "kill", "reroute", "epoch", "cycle", "eject", "hop", "link"} {
		if rec.counts[kind] == 0 {
			t.Errorf("scenario emitted no %q events; it no longer exercises that kind", kind)
		}
	}
	if rec.swapDrops == 0 {
		t.Errorf("scenario dropped nothing during an epoch swap; it no longer pins swap-time event order")
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenEventStream {
		t.Errorf("event-stream digest %s, want %s (counts %v)", got, goldenEventStream, rec.counts)
	}
}
