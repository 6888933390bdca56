package topology

import "math/bits"

// FaultView is the read-only interface a fault plan (internal/fault)
// exposes to the topology layer: which routers and which individual
// ports a fault scenario has taken down. The topology package defines
// the interface rather than importing the fault package so the
// dependency points outward (fault → topology, never back).
type FaultView interface {
	// RouterDown reports that router r has failed entirely.
	RouterDown(r int) bool
	// PortDown reports that the channel attached at (router, port) has
	// failed on this side. A channel is dead when either side is down.
	PortDown(r, port int) bool
}

// Degraded is the liveness of one fault scenario over a Machine:
// precomputed liveness of every port and terminal, and the surviving
// global channels of every group pair. It answers liveness queries
// only; the wiring stays with the machine, which the view holds but
// does not impersonate, so a fault view cannot stand in for a machine.
// The simulator owns the view of the epoch in force and hands it to
// routing with every query.
//
// The view is immutable once built: one Degraded corresponds to one
// fault scenario and may be shared by any number of simulations.
type Degraded struct {
	m Machine

	portDead   [][]bool // [router][port], true when either channel end is down
	routerDown []bool
	termAlive  []bool
	aliveTerms int

	// liveSlots[grp][dst] lists the surviving global-channel slots from
	// group grp to group dst in ascending slot order — the same order
	// GlobalSlot enumerates them — so an empty fault plan makes
	// LiveGlobalSlot(grp, dst, m) == GlobalSlot(grp, dst, m) exactly.
	liveSlots [][][]int
	// reach[ga] has bit gb set when at least one global channel between
	// groups ga and gb survives (LiveChannels(ga, gb) > 0, symmetric;
	// never a group's own bit).
	reach     [][]uint64
	connected bool

	deadRouters, deadGlobal, deadLocal, deadTerm int
}

// NewDegraded builds the degraded view of d under fault plan fv. A nil
// fv yields a fully alive view (useful for uniform call sites).
func NewDegraded(d Machine, fv FaultView) *Degraded {
	dg := &Degraded{m: d}
	n := d.Routers()
	dg.routerDown = make([]bool, n)
	dg.portDead = make([][]bool, n)
	for r := 0; r < n; r++ {
		dg.portDead[r] = make([]bool, d.Radix(r))
		if fv != nil && fv.RouterDown(r) {
			dg.routerDown[r] = true
			dg.deadRouters++
		}
	}
	// A port is dead when its own side or the peer side is down (port
	// failed or whole router failed). Count each bidirectional channel
	// once, from its lower (router, port) end.
	for r := 0; r < n; r++ {
		for p := 0; p < d.Radix(r); p++ {
			pt := d.Port(r, p)
			down := dg.routerDown[r] || (fv != nil && fv.PortDown(r, p))
			if pt.Class != ClassTerminal {
				down = down || dg.routerDown[pt.PeerRouter] || (fv != nil && fv.PortDown(pt.PeerRouter, pt.PeerPort))
			}
			if !down {
				continue
			}
			dg.portDead[r][p] = true
			switch {
			case pt.Class == ClassTerminal:
				dg.deadTerm++
			case pt.PeerRouter > r || (pt.PeerRouter == r && pt.PeerPort > p):
				if pt.Class == ClassGlobal {
					dg.deadGlobal++
				} else {
					dg.deadLocal++
				}
			}
		}
	}
	dg.termAlive = make([]bool, d.Terminals())
	for t := range dg.termAlive {
		dg.termAlive[t] = !dg.portDead[d.TerminalRouter(t)][d.TerminalPort(t)]
		if dg.termAlive[t] {
			dg.aliveTerms++
		}
	}
	dg.buildLiveSlots()
	dg.connected = dg.computeConnected()
	return dg
}

// buildLiveSlots enumerates, per ordered group pair, the global-channel
// slots whose channel survived, in ascending slot order.
func (dg *Degraded) buildLiveSlots() {
	d := dg.m
	g := d.Groups()
	dg.liveSlots = make([][][]int, g)
	words := (g + 63) / 64
	backing := make([]uint64, g*words)
	dg.reach = make([][]uint64, g)
	for ga := 0; ga < g; ga++ {
		dg.reach[ga] = backing[ga*words : (ga+1)*words : (ga+1)*words]
		dg.liveSlots[ga] = make([][]int, g)
		for gb := 0; gb < g; gb++ {
			if ga == gb {
				continue
			}
			nch := d.ChannelsBetween(ga, gb)
			var live []int
			for m := 0; m < nch; m++ {
				slot := d.GlobalSlot(ga, gb, m)
				r := d.GroupRouter(ga, d.SlotRouterIndex(slot))
				if !dg.portDead[r][d.GlobalPort(slot)] {
					live = append(live, slot)
				}
			}
			dg.liveSlots[ga][gb] = live
			if len(live) > 0 {
				dg.reach[ga][gb/64] |= 1 << (gb % 64)
			}
		}
	}
}

// computeConnected reports whether every live router can reach every
// other live router over live channels (router-level BFS). It is an
// upper bound on what the routing algorithms — restricted to minimal
// paths and single-detour Valiant paths — can actually use, but a
// disconnected report is definitive: some traffic must drop.
func (dg *Degraded) computeConnected() bool {
	n := dg.m.Routers()
	start := -1
	for r := 0; r < n; r++ {
		if !dg.routerDown[r] {
			start = r
			break
		}
	}
	if start < 0 {
		return false
	}
	seen := make([]bool, n)
	seen[start] = true
	queue := []int{start}
	count := 1
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for p := 0; p < dg.m.Radix(r); p++ {
			pt := dg.m.Port(r, p)
			if pt.Class == ClassTerminal || dg.portDead[r][p] || seen[pt.PeerRouter] {
				continue
			}
			seen[pt.PeerRouter] = true
			queue = append(queue, pt.PeerRouter)
			count++
		}
	}
	for r := 0; r < n; r++ {
		if !dg.routerDown[r] && !seen[r] {
			return false
		}
	}
	return count > 0
}

// Machine returns the machine the view was built over.
func (dg *Degraded) Machine() Machine { return dg.m }

// Alive reports whether the channel attached at (router, port) can carry
// flits: neither side's port nor router has failed.
func (dg *Degraded) Alive(router, port int) bool { return !dg.portDead[router][port] }

// RouterDown reports that router r failed entirely.
func (dg *Degraded) RouterDown(r int) bool { return dg.routerDown[r] }

// TerminalDown reports that terminal t is unreachable: its terminal
// channel or its router failed.
func (dg *Degraded) TerminalDown(t int) bool { return !dg.termAlive[t] }

// AliveTerminals returns the number of terminals still attached.
func (dg *Degraded) AliveTerminals() int { return dg.aliveTerms }

// LiveChannels returns the number of surviving global channels from
// group ga to group gb (symmetric, like the wiring).
func (dg *Degraded) LiveChannels(ga, gb int) int {
	if ga == gb {
		return 0
	}
	return len(dg.liveSlots[ga][gb])
}

// LiveInterGroup returns a usable Valiant intermediate group for
// traffic from group gs to group gd: a group other than gs that gs
// reaches over a surviving global channel and that has a surviving
// channel on to gd (trivially true when it is gd itself). Candidates
// are numbered in ascending group order and the one numbered draw
// modulo their count is returned; ok is false when there is none.
func (dg *Degraded) LiveInterGroup(gs, gd int, draw uint64) (gi int, ok bool) {
	from, to := dg.reach[gs], dg.reach[gd]
	cand := func(w int) uint64 {
		c := to[w]
		if gd/64 == w {
			c |= 1 << (gd % 64)
		}
		return from[w] & c
	}
	count := 0
	for w := range from {
		count += bits.OnesCount64(cand(w))
	}
	if count == 0 {
		return -1, false
	}
	want := int(draw % uint64(count))
	for w := range from {
		c := cand(w)
		if k := bits.OnesCount64(c); want >= k {
			want -= k
			continue
		}
		for ; want > 0; want-- {
			c &= c - 1
		}
		return w*64 + bits.TrailingZeros64(c), true
	}
	return -1, false // unreachable: count bounded want
}

// LiveGlobalSlot returns the m-th surviving global-channel slot from
// group grp to group dst, with m wrapped into the live count, or -1
// when the pair has no surviving channel (or grp == dst). With an empty
// fault plan it equals GlobalSlot(grp, dst, m) for every m.
func (dg *Degraded) LiveGlobalSlot(grp, dst, m int) int {
	if grp == dst {
		return -1
	}
	live := dg.liveSlots[grp][dst]
	if len(live) == 0 {
		return -1
	}
	return live[m%len(live)]
}

// Connected reports whether all live routers form one component over
// live channels. A false report guarantees drops; a true report still
// permits drops if the surviving paths fall outside the routing
// algorithms' minimal-plus-one-detour repertoire.
func (dg *Degraded) Connected() bool { return dg.connected }

// FaultCounts returns the number of failed routers and of dead
// bidirectional channels by class (a channel whose either end failed
// counts once; channels of failed routers are included).
func (dg *Degraded) FaultCounts() (routers, global, local, terminal int) {
	return dg.deadRouters, dg.deadGlobal, dg.deadLocal, dg.deadTerm
}
