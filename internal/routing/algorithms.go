package routing

import (
	"fmt"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// MIN is minimal routing (Section 4.1): at most one local hop in the
// source group, one global channel, and one local hop in the destination
// group. Ideal on benign traffic, pathological on adversarial patterns.
type MIN struct{ base }

// NewMIN returns minimal routing over d.
func NewMIN(d topology.Machine) *MIN { return &MIN{newBase(d)} }

// Name implements sim.Routing.
func (*MIN) Name() string { return "MIN" }

// Decide implements sim.Routing: always minimal on a pristine network.
// Under a fault view, a source-destination group pair whose every direct
// global channel died falls back to a Valiant detour through a live
// intermediate group (the VC scheme already covers non-minimal paths,
// so the fallback stays within the deadlock-free ordering); a
// destination no fallback can reach is reported unroutable.
func (m *MIN) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	if v := net.View(); v != nil {
		return m.decideWithFaults(v, r, hs, false)
	}
	hs.Minimal = true
	hs.InterGroup = -1
	return nil
}

// decideWithFaults is the shared minimal-preferred decision under
// fault view v: route minimally when a live minimal path exists, detour
// through a live intermediate group otherwise. forceDetour skips the
// minimal preference (VAL's behaviour).
func (b *base) decideWithFaults(v *topology.Degraded, r *sim.Router, hs *sim.HopState, forceDetour bool) error {
	t := b.topo
	if v.TerminalDown(hs.Dst) {
		return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
	}
	dstR := t.TerminalRouter(hs.Dst)
	gs := t.RouterGroup(r.ID)
	gd := t.RouterGroup(dstR)
	minFeasible := dstR == r.ID || gs == gd || v.LiveChannels(gs, gd) > 0
	if minFeasible && (!forceDetour || dstR == r.ID) {
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	gi, ok := b.pickLiveInterGroup(v, gs, gd, hs.Seed)
	if ok {
		hs.Minimal = false
		hs.InterGroup = gi
		return nil
	}
	if minFeasible {
		// forceDetour with no usable intermediate group (single-group
		// machine, or faults severed them all): minimal still works.
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
}

// VAL is Valiant's randomized algorithm applied at the group level
// (Section 4.1): every packet first routes minimally to a random
// intermediate group, then minimally to its destination. It halves the
// worst case at the price of halving best-case throughput.
type VAL struct{ base }

// NewVAL returns Valiant routing over d.
func NewVAL(d topology.Machine) *VAL { return &VAL{newBase(d)} }

// Name implements sim.Routing.
func (*VAL) Name() string { return "VAL" }

// Decide implements sim.Routing: always non-minimal through a random
// intermediate group. Under a fault view the intermediate group is
// drawn among the groups whose detour channels survived.
func (val *VAL) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	if v := net.View(); v != nil {
		return val.decideWithFaults(v, r, hs, true)
	}
	gs := val.topo.RouterGroup(r.ID)
	if val.topo.TerminalRouter(hs.Dst) == r.ID {
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	gi := val.pickInterGroup(gs, hs.Seed)
	if gi == gs {
		// Single-group topology: no intermediate group exists, so the
		// "Valiant" path is the minimal one.
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	hs.Minimal = false
	hs.InterGroup = gi
	return nil
}

// UGALMode selects the congestion-estimate flavour of UGAL.
type UGALMode int

const (
	// UGALLocal is conventional UGAL-L: total output-queue estimates at
	// the source router.
	UGALLocal UGALMode = iota
	// UGALLocalVC is UGAL-L_VC: per-VC queue estimates, separating
	// minimal (VC1) from non-minimal (VC0) occupancy (Section 4.3.1).
	UGALLocalVC
	// UGALLocalVCH is UGAL-L_VCH: per-VC estimates only when the two
	// candidate paths leave through the same output port, total
	// estimates otherwise (the paper's hybrid rule).
	UGALLocalVCH
	// UGALGlobal is UGAL-G: an ideal implementation reading the queues
	// of the actual global channels, wherever they are in the group.
	UGALGlobal
)

// String names the mode like the paper does.
func (m UGALMode) String() string {
	switch m {
	case UGALLocal:
		return "UGAL-L"
	case UGALLocalVC:
		return "UGAL-L_VC"
	case UGALLocalVCH:
		return "UGAL-L_VCH"
	case UGALGlobal:
		return "UGAL-G"
	default:
		return fmt.Sprintf("UGALMode(%d)", int(m))
	}
}

// UGAL chooses between the minimal and a random Valiant path per packet
// by comparing queue-length × hop-count products (Singh's UGAL), with
// the congestion estimate selected by Mode.
type UGAL struct {
	base
	// Mode selects the congestion estimate.
	Mode UGALMode
	// CreditRT marks the UGAL-L_CR configuration: the decision rule is
	// UGAL-L_VCH and the simulator must run with Config.DelayCredits.
	CreditRT bool
}

// NewUGAL returns a UGAL router over d with the given mode.
func NewUGAL(d topology.Machine, mode UGALMode) *UGAL {
	return &UGAL{base: newBase(d), Mode: mode}
}

// NewUGALCR returns the UGAL-L_CR configuration: UGAL-L_VCH decisions
// designed to run with the credit round-trip latency mechanism enabled
// (sim.Config.DelayCredits = true; see NeedsCreditDelay).
func NewUGALCR(d topology.Machine) *UGAL {
	return &UGAL{base: newBase(d), Mode: UGALLocalVCH, CreditRT: true}
}

// Name implements sim.Routing.
func (u *UGAL) Name() string {
	if u.CreditRT {
		return "UGAL-L_CR"
	}
	return u.Mode.String()
}

// NeedsCreditDelay reports that the simulator should enable the delayed-
// credit mechanism for this algorithm.
func (u *UGAL) NeedsCreditDelay() bool { return u.CreditRT }

// Decide implements sim.Routing: the source-router adaptive choice.
// Under a fault view the minimal and Valiant candidates are restricted
// to surviving channels; when only one candidate survives it is taken
// without a queue comparison, and when neither does the packet is
// unroutable.
func (u *UGAL) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	t := u.topo
	v := net.View()
	if v != nil && v.TerminalDown(hs.Dst) {
		return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
	}
	dstR := t.TerminalRouter(hs.Dst)
	if dstR == r.ID {
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	gs := t.RouterGroup(r.ID)
	gd := t.RouterGroup(dstR)

	var gi int
	if v != nil {
		minFeasible := gs == gd || v.LiveChannels(gs, gd) > 0
		var giOK bool
		gi, giOK = u.pickLiveInterGroup(v, gs, gd, hs.Seed)
		switch {
		case !minFeasible && !giOK:
			return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
		case !giOK:
			// No usable intermediate group: minimal without comparison.
			hs.Minimal = true
			hs.InterGroup = -1
			return nil
		case !minFeasible:
			// Minimal path severed: forced Valiant detour.
			hs.Minimal = false
			hs.InterGroup = gi
			return nil
		}
	} else {
		gi = u.pickInterGroup(gs, hs.Seed)
		if gi == gs {
			// Single-group topology: no non-minimal candidate exists.
			hs.Minimal = true
			hs.InterGroup = -1
			return nil
		}
	}

	hm := u.minimalHops(v, r.ID, dstR, hs.Seed)
	hnm := u.nonminimalHops(v, r.ID, dstR, gi, hs.Seed)

	portM, vcM, errM := u.hop(v, r.ID, dstR, gd, true, hs.Seed)
	portNm, vcNm, errNm := u.hop(v, r.ID, dstR, gi, false, hs.Seed)
	// Either candidate's first hop can be locally severed even when the
	// group pair keeps live channels; fall back to the other candidate.
	switch {
	case errM != nil && errNm != nil:
		return &sim.UnroutableError{Src: hs.Src, Dst: hs.Dst, Router: r.ID}
	case errM != nil:
		hs.Minimal = false
		hs.InterGroup = gi
		return nil
	case errNm != nil:
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}

	var qm, qnm int
	switch u.Mode {
	case UGALLocal:
		qm = r.OutputQueue(portM)
		qnm = r.OutputQueue(portNm)
	case UGALLocalVC:
		qm = r.OutputQueueVC(portM, vcM)
		qnm = r.OutputQueueVC(portNm, vcNm)
	case UGALLocalVCH:
		if portM == portNm {
			qm = r.OutputQueueVC(portM, vcM)
			qnm = r.OutputQueueVC(portNm, vcNm)
		} else {
			qm = r.OutputQueue(portM)
			qnm = r.OutputQueue(portNm)
		}
	case UGALGlobal:
		qm, qnm = u.globalQueues(net, v, r, gs, gd, gi, hs.Seed, portM, portNm)
	}

	if qm*hm <= qnm*hnm {
		hs.Minimal = true
		hs.InterGroup = -1
		return nil
	}
	hs.Minimal = false
	hs.InterGroup = gi
	return nil
}

// globalQueues implements the UGAL-G oracle: the congestion of the two
// candidate paths is read at the routers that actually source their
// global channels, regardless of where in the group those routers are.
// For an intra-group minimal path (no global channel) the local output
// queue stands in.
func (u *UGAL) globalQueues(net *sim.Network, v *topology.Degraded, r *sim.Router, gs, gd, gi int, seed uint64, portM, portNm int) (qm, qnm int) {
	t := u.topo
	if gs == gd {
		qm = r.OutputQueue(portM)
	} else if slot := u.chooseSlot(v, gs, gd, seed); slot < 0 {
		qm = r.OutputQueue(portM) // severed pair: callers never reach here
	} else {
		owner := net.RouterAt(t.GroupRouter(gs, t.SlotRouterIndex(slot)))
		qm = owner.OutputQueue(t.GlobalPort(slot))
	}
	if gi == gs {
		qnm = qm
	} else if slot := u.chooseSlot(v, gs, gi, seed); slot < 0 {
		qnm = r.OutputQueue(portNm)
	} else {
		owner := net.RouterAt(t.GroupRouter(gs, t.SlotRouterIndex(slot)))
		qnm = owner.OutputQueue(t.GlobalPort(slot))
	}
	return qm, qnm
}
