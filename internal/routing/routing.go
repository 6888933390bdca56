// Package routing implements the dragonfly routing algorithms of
// Section 4 of the paper:
//
//   - MIN — minimal routing (Section 4.1, three steps).
//   - VAL — Valiant randomized routing over intermediate groups
//     (Section 4.1, five steps).
//   - UGAL-L — universal globally-adaptive load-balanced routing using
//     local queue estimates at the source router.
//   - UGAL-G — the ideal variant with oracle access to the queues of
//     every global channel in the source group.
//   - UGAL-L_VC — queue estimates discriminated by virtual channel
//     (Section 4.3.1).
//   - UGAL-L_VCH — the hybrid: VC discrimination only when the minimal
//     and non-minimal candidates share an output port (Section 4.3.1).
//   - UGAL-L_CR — UGAL-L_VCH on top of the credit round-trip latency
//     mechanism (Section 4.3.2); the mechanism itself lives in
//     internal/sim and is switched on via Config.DelayCredits.
//
// Virtual channels are assigned per Figure 7 to break routing deadlock:
// along any path the (class, VC) level is non-decreasing —
// non-minimal paths use l:VC0 → g:VC0 → l:VC1 → g:VC1 → l:VC2 and
// minimal paths the suffix l:VC1 → g:VC1 → l:VC2. Minimal and
// non-minimal packets therefore use distinct VCs on a shared first local
// hop (VC1 vs. VC0), which is exactly the discrimination UGAL-L_VC
// needs.
package routing

import (
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// VCs is the number of virtual channels the algorithms require
// (Figure 7: two for minimal plus a third for non-minimal routing).
const VCs = 3

// Virtual-channel levels (see the package comment).
const (
	vcPhase0  = 0 // local and global hops towards the intermediate group
	vcPhase1  = 1 // local and global hops towards the destination group
	vcDestHop = 2 // the final local hop inside the destination group
)

// base carries the dragonfly structure all algorithms share: the
// machine, and its bundle-spreading capability (sl, non-nil when the
// machine spreads parallel local links per packet). The algorithms rely
// on the one invariant every dragonfly-family Machine shares: any two
// groups are connected by at least one direct global channel, so
// minimal paths take exactly one global hop and Valiant paths two.
//
// Fault state is not stored here: the network owns it and every query
// reads the view in force through sim.Network.View, passed down the
// helpers as v. A nil v is the pristine machine; a non-nil v makes
// every structural query consult channel liveness. Shards call one
// routing value concurrently, so it holds nothing per epoch.
type base struct {
	topo topology.Machine
	sl   topology.SeededLocal
}

// newBase wraps m, detecting the optional local-bundle capability:
// direct local hops then spread over the bundle while hop counts and
// detours keep using LocalRoute/LocalHops (every cable of a bundle is
// one hop).
func newBase(m topology.Machine) base {
	b := base{topo: m}
	b.sl, _ = m.(topology.SeededLocal)
	return b
}

// errNoLivePath is the internal marker hop helpers return when the
// faults severed every channel the requested hop could use; callers
// holding packet context convert it to *sim.UnroutableError.
var errNoLivePath = &internalNoPathError{}

type internalNoPathError struct{}

func (*internalNoPathError) Error() string { return "routing: no live channel for hop" }

// hop computes the switch request (output port, VC) for a packet at
// router rID heading for target group tg with destination router dstR.
// phase1 reports whether tg is the packet's final destination group.
// seed drives the deterministic choice among parallel global channels,
// so Decide-time congestion queries inspect exactly the channel NextHop
// will use. Under a fault view it returns errNoLivePath when no live
// channel can make progress.
func (b *base) hop(v *topology.Degraded, rID, dstR, tg int, phase1 bool, seed uint64) (port, vc int, err error) {
	t := b.topo
	cur := t.RouterGroup(rID)
	idx := t.RouterIndex(rID)
	if cur == tg {
		// Local hop(s) inside the destination group (dimension-order for
		// flattened-butterfly groups, direct otherwise).
		port, err = b.localPort(v, rID, t.RouterIndex(dstR), seed)
		return port, vcDestHop, err
	}
	slot := b.chooseSlot(v, cur, tg, seed)
	if slot < 0 {
		return 0, 0, errNoLivePath
	}
	level := vcPhase0
	if phase1 {
		level = vcPhase1
	}
	if t.SlotRouterIndex(slot) == idx {
		return t.GlobalPort(slot), level, nil
	}
	port, err = b.localPort(v, rID, t.SlotRouterIndex(slot), seed)
	return port, level, err
}

// localPort returns the local output port from rID toward the router
// with in-group index toIdx. On a pristine machine this is the direct
// next hop; under a fault view, a dead direct channel is detoured
// through one live intermediate router of the group, chosen
// deterministically from the packet seed. The detour stays on the same
// VC — legal here because the fully connected group's local hops are
// acyclic in the detour's two-hop pattern, though pathological fault
// plans could in principle defeat the ordering, which is exactly what
// the stall detector's diagnostic snapshot exists to expose.
func (b *base) localPort(v *topology.Degraded, rID, toIdx int, seed uint64) (int, error) {
	t := b.topo
	idx := t.RouterIndex(rID)
	direct := t.LocalRoute(idx, toIdx)
	if b.sl != nil {
		direct = b.sl.LocalRouteSeeded(idx, toIdx, seed)
	}
	if v == nil || v.Alive(rID, direct) {
		return direct, nil
	}
	grp := t.RouterGroup(rID)
	a := t.RoutersPerGroup()
	start := int(sim.Mix(seed^0x94d049bb133111eb) % uint64(a))
	for i := 0; i < a; i++ {
		w := start + i
		if w >= a {
			w -= a
		}
		if w == idx || w == toIdx {
			continue
		}
		first := t.LocalRoute(idx, w)
		if !v.Alive(rID, first) {
			continue
		}
		if !v.Alive(t.GroupRouter(grp, w), t.LocalRoute(w, toIdx)) {
			continue
		}
		return first, nil
	}
	return 0, errNoLivePath
}

// chooseSlot picks the global-channel slot from group cur to group tg,
// deterministically per packet, uniformly among the parallel channels of
// the pair — under a fault view, among the pair's surviving channels
// (-1 when none survive). With an all-alive view the live slot list
// equals the full slot enumeration, so the choice is bit-identical to
// the pristine one.
func (b *base) chooseSlot(v *topology.Degraded, cur, tg int, seed uint64) int {
	if v != nil {
		n := v.LiveChannels(cur, tg)
		if n == 0 {
			return -1
		}
		m := 0
		if n > 1 {
			m = int(sim.Mix(seed+uint64(cur)*0x9e37) % uint64(n))
		}
		return v.LiveGlobalSlot(cur, tg, m)
	}
	n := b.topo.ChannelsBetween(cur, tg)
	m := 0
	if n > 1 {
		m = int(sim.Mix(seed+uint64(cur)*0x9e37) % uint64(n))
	}
	return b.topo.GlobalSlot(cur, tg, m)
}

// NextHop resolves the packet's phase and target group, then computes
// the hop request. It satisfies sim.Routing for every algorithm. Under
// a fault view it returns a *sim.UnroutableError when the faults
// severed every channel the hop could use; the simulator drops the
// packet and counts it.
func (b *base) NextHop(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	t := b.topo
	dstR := t.TerminalRouter(hs.Dst)
	if r.ID == dstR {
		hs.Port = t.TerminalPort(hs.Dst)
		hs.VC = 0
		return nil
	}
	cur := t.RouterGroup(r.ID)
	if !hs.Phase1 && cur == hs.InterGroup {
		hs.Phase1 = true
	}
	tg := t.RouterGroup(dstR)
	if !hs.Phase1 {
		tg = hs.InterGroup
	}
	if !hs.Phase1 && cur == tg {
		// InterGroup equals the source group: degenerate to phase 1.
		hs.Phase1 = true
		tg = t.RouterGroup(dstR)
	}
	port, vc, err := b.hop(net.View(), r.ID, dstR, tg, hs.Phase1, hs.Seed)
	if err != nil {
		return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
	}
	hs.Port, hs.VC = port, vc
	return nil
}

// minimalHops returns H_m: the router-to-router channel count of the
// minimal path from rID to dstR using the packet's slot choice: the
// intra-group hops to the global channel, the global channel, and the
// intra-group hops inside the destination group.
func (b *base) minimalHops(v *topology.Degraded, rID, dstR int, seed uint64) int {
	if rID == dstR {
		return 0
	}
	t := b.topo
	gs, gd := t.RouterGroup(rID), t.RouterGroup(dstR)
	if gs == gd {
		return t.LocalHops(t.RouterIndex(rID), t.RouterIndex(dstR))
	}
	slot := b.chooseSlot(v, gs, gd, seed)
	if slot < 0 {
		return infeasibleHops // no surviving channel: never preferable
	}
	hops := t.LocalHops(t.RouterIndex(rID), t.SlotRouterIndex(slot)) + 1
	entry := t.GlobalEntryRouter(gs, gd, slot)
	return hops + t.LocalHops(t.RouterIndex(entry), t.RouterIndex(dstR))
}

// infeasibleHops is the hop count reported for a path with no surviving
// channel, large enough that the UGAL product rule never selects it.
const infeasibleHops = 1 << 20

// nonminimalHops returns H_nm: the channel count of the Valiant path
// through intermediate group gi, following the same deterministic slot
// choices NextHop will make.
func (b *base) nonminimalHops(v *topology.Degraded, rID, dstR, gi int, seed uint64) int {
	t := b.topo
	gs, gd := t.RouterGroup(rID), t.RouterGroup(dstR)
	if gi == gs {
		return b.minimalHops(v, rID, dstR, seed)
	}
	slot1 := b.chooseSlot(v, gs, gi, seed)
	if slot1 < 0 {
		return infeasibleHops
	}
	hops := t.LocalHops(t.RouterIndex(rID), t.SlotRouterIndex(slot1)) + 1
	rx := t.GlobalEntryRouter(gs, gi, slot1)
	if gi == gd {
		return hops + t.LocalHops(t.RouterIndex(rx), t.RouterIndex(dstR))
	}
	slot2 := b.chooseSlot(v, gi, gd, seed)
	if slot2 < 0 {
		return infeasibleHops
	}
	hops += t.LocalHops(t.RouterIndex(rx), t.SlotRouterIndex(slot2)) + 1
	entry := t.GlobalEntryRouter(gi, gd, slot2)
	return hops + t.LocalHops(t.RouterIndex(entry), t.RouterIndex(dstR))
}

// pickInterGroup draws the Valiant intermediate group for a packet,
// uniform over all groups except the source group (a candidate equal to
// the source group carries no load-balancing value). On a single-group
// topology there is no other group to draw, so it returns gs itself —
// callers treat that as "route minimally" — instead of dividing by zero.
func (b *base) pickInterGroup(gs int, seed uint64) int {
	g := b.topo.Groups()
	if g <= 1 {
		return gs
	}
	gi := int(sim.Mix(seed^0xd1b54a32d192ed03) % uint64(g-1))
	if gi >= gs {
		gi++
	}
	return gi
}

// pickLiveInterGroup draws the Valiant intermediate group uniformly
// among the groups still usable under fault view v, deterministically
// per packet (topology.Degraded.LiveInterGroup). It uses the same seed
// mixing as pickInterGroup and the candidates are numbered in ascending
// group order, so with an all-alive view the draw is bit-identical to
// pickInterGroup. ok is false when no usable intermediate group exists
// (single-group machine, or the faults severed them all).
func (b *base) pickLiveInterGroup(v *topology.Degraded, gs, gd int, seed uint64) (gi int, ok bool) {
	return v.LiveInterGroup(gs, gd, sim.Mix(seed^0xd1b54a32d192ed03))
}
