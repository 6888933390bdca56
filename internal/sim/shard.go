package sim

import (
	"fmt"

	"dragonfly/internal/metrics"
)

// The engine partitions the network into contiguous ranges of groups
// (or of routers, when the topology has no group structure) and runs
// one pipeline for every partition size. Every shard owns the full
// per-cycle pipeline — deliver, inject, admit, eject, transfer,
// allocate — for its routers, its terminals and its packet arena, so
// the hot loop stays allocation-free and lock-free within a shard. The
// serial engine is the one-shard partition: each phase runs inline on
// the calling goroutine. With k > 1 shards each phase starts k
// goroutines and waits for them (runPhase).
//
// A cycle is: drain the mailboxes, apply any epoch swap, run the main
// phase, check the shards for errors, replay the buffered events in
// shard order, and close the cycle (CycleEnd).
//
// The only state crossing a shard boundary is what crosses a link whose
// endpoints live in different shards: flits leaving the sender's last
// router and credits returning upstream. Those are posted into
// per-(sender, receiver) mailboxes during the cycle and drained by the
// receiving shard at the start of the next cycle, before delivery — the
// same cycle a one-shard engine would pop them off the wire, because
// every channel latency is at least one cycle. Per link there is a
// single producer (flits: the shard of the link's source router;
// credits: the shard of its destination router) and a single consumer,
// and at most one flit enters a link per cycle, so queue order — and
// therefore every routing decision, credit clamp and ejection — is
// bit-identical for any shard count.
//
// Determinism of aggregation: collector events and OnEject callbacks
// raised inside the main phase are buffered per shard and replayed in
// shard order once the phase ends. Shards cover ascending router
// ranges, so the replayed ejection order is the router-major order for
// every shard count, which keeps the floating-point accumulation order
// (and hence golden hashes) stable. With one shard the replayed stream
// is exactly the order the events were raised in; with more, a
// cycle's stream is grouped by shard rather than interleaved per
// router, while all counts, and the order of ejections, are identical.
//
// Fault timelines compose with sharding because epoch swaps land
// between the phases: advanceEpochs runs on the coordinator after the
// mailbox drain, when every mailbox is empty and no shard is running.

// flitXfer carries one flit across a shard boundary: the link it rides
// plus the packet's full arena payload. The sender releases its arena
// slot when it posts the record; the receiver allocates a fresh slot in
// its own arena when it drains the mailbox.
type flitXfer struct {
	at       int64
	create   int64
	inject   int64
	id       uint64
	seed     uint64
	link     int32
	dst      int32
	src      int32
	interGrp int32
	nextPort int16
	hops     int16
	nextVC   int8
	vc       uint8
	flags    uint8
}

// credXfer carries one upstream credit across a shard boundary.
type credXfer struct {
	at   int64
	link int32
	vc   uint8
}

// Buffered-event kinds (evRec.kind). Non-hop kinds reuse metrics.Hop
// fields as scratch: VCOccupancy and CreditRTT store their value in
// CreditStall, Drop uses only Router, Eject carries the arena ref.
const (
	evFlit uint8 = iota
	evVCOcc
	evRTT
	evDrop
	evHop
	evEject
)

// evRec is one buffered instrumentation event, replayed at the
// end-of-cycle fold.
type evRec struct {
	kind uint8
	ref  int32 // evEject: arena slot, released after replay
	hop  metrics.Hop
}

// shard is the per-goroutine slice of the network: a contiguous router
// range with its own arena, scratch, counters and outboxes.
type shard struct {
	idx    int
	r0, r1 int     // owned routers: [r0, r1)
	terms  []int32 // owned terminals, ascending

	// linkAct has bit id set while link id is alive and holds a flit
	// this shard pops (it owns the link's destination router) or a
	// credit it pops (it owns the source router); deliver walks it in
	// ascending id order (activity.go).
	linkAct []uint64

	ar        arena
	hs        HopState
	ejectView Packet

	// Movement and measurement counters; Network-level totals sum these
	// plus the in-transit mailbox entries.
	outstanding    int
	inFlight       int
	lastMove       int64
	dropped        int64
	injectedWindow int64
	ejectedWindow  int64

	// Outboxes, indexed by receiving shard (the self slot stays nil):
	// appended during the parallel phase, drained — and reset — by the
	// receiver at the start of the next cycle.
	flitOut [][]flitXfer
	credOut [][]credXfer

	// Buffered collector/OnEject events, replayed in shard order.
	ev []evRec

	// err carries a phase failure to the coordinator.
	err error
}

// Shards returns the number of engine shards (1 = serial engine).
func (n *Network) Shards() int { return len(n.shards) }

// SetShards repartitions the network across k engine shards. It must be
// called before the first Step; k is clamped to the group count, and 0
// or 1 selects the serial engine. Results are bit-identical for every k.
func (n *Network) SetShards(k int) error {
	if k < 0 {
		return &ConfigError{Param: "Shards", Value: fmt.Sprint(k), Reason: "shard count must be >= 0 (0 runs the serial engine)"}
	}
	if n.now != 0 {
		return fmt.Errorf("sim: SetShards after the simulation started (cycle %d)", n.now)
	}
	n.buildShards(k)
	return nil
}

// buildShards computes the partition and the per-shard state for k
// shards (clamped; minimum 1). Shards own whole groups: group alignment
// matters for UGAL-G, whose congestion oracle reads sibling routers of
// the packet's source group.
func (n *Network) buildShards(k int) {
	nR := len(n.routers)
	g := n.topo.Groups()
	if k < 1 {
		k = 1
	}
	if k > g {
		k = g
	}
	groupShard := make([]int32, g)
	for s := 0; s < k; s++ {
		for gi := s * g / k; gi < (s+1)*g/k; gi++ {
			groupShard[gi] = int32(s)
		}
	}
	n.routerShard = make([]int32, nR)
	for r := 0; r < nR; r++ {
		n.routerShard[r] = groupShard[n.topo.RouterGroup(r)]
	}
	n.shards = make([]shard, k)
	for s := range n.shards {
		sh := &n.shards[s]
		sh.idx = s
		sh.r0, sh.r1 = -1, -1
		sh.flitOut = make([][]flitXfer, k)
		sh.credOut = make([][]credXfer, k)
		sh.linkAct = make([]uint64, maskWords(len(n.links)))
	}
	for r := 0; r < nR; r++ {
		sh := &n.shards[n.routerShard[r]]
		if sh.r0 < 0 {
			sh.r0 = r
		} else if r != sh.r1 {
			// The walk below assumes each shard's routers are contiguous
			// and ascending; every Machine numbers routers group-major,
			// so this cannot trip. Guard it anyway.
			panic("sim: shard router range not contiguous")
		}
		sh.r1 = r + 1
	}
	for t := 0; t < n.topo.Terminals(); t++ {
		sh := &n.shards[n.routerShard[n.topo.TerminalRouter(t)]]
		sh.terms = append(sh.terms, int32(t))
	}
	n.rebuildActivity()
	// Prebuilt phase closures: Step runs these verbatim every cycle, so
	// the steady state allocates nothing.
	n.drainFns = make([]func(), k)
	n.mainFns = make([]func(), k)
	for s := range n.shards {
		sh := &n.shards[s]
		n.drainFns[s] = func() {
			n.drainShard(sh)
			n.wg.Done()
		}
		n.mainFns[s] = func() {
			sh.err = n.mainShard(sh)
			n.wg.Done()
		}
	}
}

// shardForRouter returns the shard owning router r.
func (n *Network) shardForRouter(r int) *shard { return &n.shards[n.routerShard[r]] }

// runPhase runs one per-shard phase to completion on all shards: inline
// for the one-shard engine, on one goroutine per shard otherwise.
func (n *Network) runPhase(fns []func()) {
	n.wg.Add(len(fns))
	if len(fns) == 1 {
		fns[0]()
	} else {
		for i := range fns {
			go fns[i]()
		}
	}
	n.wg.Wait()
}

// drainShard moves last cycle's inbound mailbox traffic onto this
// shard's links: flits are re-homed into the shard's arena, credits
// pushed into the upstream delay lines. Every delivery time in a
// mailbox is at least the current cycle (channel latencies are >= 1),
// so draining before deliver reproduces the serial pop timing exactly.
func (n *Network) drainShard(sh *shard) {
	for si := range n.shards {
		src := &n.shards[si]
		in := src.flitOut[sh.idx]
		for i := range in {
			x := &in[i]
			ref := sh.ar.alloc()
			sh.ar.dst[ref] = x.dst
			sh.ar.seed[ref] = x.seed
			sh.ar.flags[ref] = x.flags
			sh.ar.interGrp[ref] = x.interGrp
			sh.ar.nextPort[ref] = x.nextPort
			sh.ar.nextVC[ref] = x.nextVC
			sh.ar.create[ref] = x.create
			sh.ar.id[ref] = x.id
			sh.ar.src[ref] = x.src
			sh.ar.inject[ref] = x.inject
			sh.ar.hops[ref] = x.hops
			sh.inFlight++
			if x.flags&pfMeasured != 0 {
				sh.outstanding++
			}
			l := &n.links[x.link]
			l.flits.push(flitEntry{at: x.at, ref: ref, vc: x.vc})
			sh.markLink(l)
		}
		src.flitOut[sh.idx] = in[:0]
		cin := src.credOut[sh.idx]
		for i := range cin {
			c := &cin[i]
			l := &n.links[c.link]
			l.credits.push(c.vc, c.at)
			sh.markLink(l)
		}
		src.credOut[sh.idx] = cin[:0]
	}
}

// mainShard runs the per-cycle pipeline over this shard's links,
// terminals and routers. A router with nothing queued has nothing to
// admit, eject, transfer or allocate, so it is skipped.
func (n *Network) mainShard(sh *shard) error {
	if err := n.deliver(sh); err != nil {
		return err
	}
	n.inject(sh)
	for ri := sh.r0; ri < sh.r1; ri++ {
		r := &n.routers[ri]
		if r.idle() {
			continue
		}
		if err := n.admitSources(sh, r); err != nil {
			return err
		}
		n.eject(sh, r)
		n.transfer(sh, r)
		n.allocate(sh, r)
	}
	return nil
}

// replayShard feeds one shard's buffered events to the collector (and
// OnEject) on the coordinator, then resets the buffer. Ejected packets
// buffered by reference are materialised here and their slots released.
func (n *Network) replayShard(sh *shard) {
	for i := range sh.ev {
		e := &sh.ev[i]
		switch e.kind {
		case evFlit:
			n.mc.ChannelFlit(e.hop.Link)
		case evVCOcc:
			n.mc.VCOccupancy(e.hop.Router, e.hop.Port, e.hop.VC, int(e.hop.CreditStall))
		case evRTT:
			n.mc.CreditRTT(e.hop.Router, e.hop.Port, e.hop.CreditStall)
		case evDrop:
			n.mc.Drop(e.hop.Router)
		case evHop:
			n.mcHop.PacketHop(e.hop)
		case evEject:
			ref := e.ref
			if n.mcEject != nil {
				f := sh.ar.flags[ref]
				n.mcEject.PacketEjected(metrics.Eject{
					Cycle:    n.now,
					Packet:   sh.ar.id[ref],
					Router:   e.hop.Router,
					Latency:  n.now - sh.ar.create[ref],
					Minimal:  f&pfMinimal != 0,
					Measured: f&pfMeasured != 0,
				})
			}
			if n.OnEject != nil {
				sh.ar.view(ref, &sh.ejectView)
				sh.ejectView.EjectTime = n.now
				n.OnEject(&sh.ejectView, n.now)
			}
			sh.ar.release(ref)
		}
	}
	sh.ev = sh.ev[:0]
}

// pushCredit returns a credit upstream on link l, routing it through
// the mailbox when the link's source router lives in another shard
// than sh, the shard acting for l's destination router.
func (n *Network) pushCredit(sh *shard, l *link, vc uint8, at int64) {
	if ss := n.routerShard[l.src]; int(ss) != sh.idx {
		sh.credOut[ss] = append(sh.credOut[ss], credXfer{link: int32(l.id), at: at, vc: vc})
		return
	}
	l.credits.push(vc, at)
	sh.markLink(l)
}

// emitDrop buffers a routing-level drop for the end-of-cycle replay.
func (n *Network) emitDrop(sh *shard, router int) {
	if n.mc != nil {
		sh.ev = append(sh.ev, evRec{kind: evDrop, hop: metrics.Hop{Router: router}})
	}
}

// Totals: Network-level counters are the sum of the per-shard counters
// plus the packets sitting in mailboxes between the allocate that
// posted them and the drain that re-homes them.

func (n *Network) totalInFlight() int {
	t := 0
	for i := range n.shards {
		sh := &n.shards[i]
		t += sh.inFlight
		for _, out := range sh.flitOut {
			t += len(out)
		}
	}
	return t
}

func (n *Network) totalOutstanding() int {
	t := 0
	for i := range n.shards {
		sh := &n.shards[i]
		t += sh.outstanding
		for _, out := range sh.flitOut {
			for j := range out {
				if out[j].flags&pfMeasured != 0 {
					t++
				}
			}
		}
	}
	return t
}

func (n *Network) totalDropped() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].dropped
	}
	return t
}

func (n *Network) totalEjectedWindow() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].ejectedWindow
	}
	return t
}

func (n *Network) totalInjectedWindow() int64 {
	var t int64
	for i := range n.shards {
		t += n.shards[i].injectedWindow
	}
	return t
}

func (n *Network) maxLastMove() int64 {
	var m int64
	for i := range n.shards {
		if lm := n.shards[i].lastMove; lm > m {
			m = lm
		}
	}
	return m
}

func (n *Network) resetWindowCounts() {
	for i := range n.shards {
		n.shards[i].injectedWindow = 0
		n.shards[i].ejectedWindow = 0
	}
}

func (n *Network) touchLastMove() {
	for i := range n.shards {
		n.shards[i].lastMove = n.now
	}
}
