package sim

import "math/bits"

// Activity masks: occupancy bitsets that let each phase of the cycle
// pipeline visit only the queues and links that hold work.
//
// Every router carries one bit per (port, VC) slot for its waitQ and
// outQ, one bit per port for its srcQ, and a constant mask of the slots
// of its terminal ports (ejection drains those from waitQ; transfer
// moves every other slot to outQ). Every shard carries one bit per link
// id for the delay-line sides it pops: the flits of the links whose
// destination router it owns and the credits of the links whose source
// router it owns. A bit is set exactly when its queue is non-empty and,
// for links, the link is alive.
//
// A phase walks the set bits in ascending index order, reading the mask
// afresh after every visit. That is the dense scan's order with the
// empty queues skipped — and a visit to an empty queue does nothing —
// so every phase does exactly what the dense scan did and the goldens
// stay bit-identical.
//
// The masks are derived state: the hot path keeps them current through
// the push/pop helpers below, and bulk rewrites (snapshot decode, epoch
// swaps, repartitioning) rebuild them from the queues with
// rebuildActivity. They are never written into a snapshot.

// setBit, clearBit and hasBit address bit i of a bitset.
func setBit(m []uint64, i int)      { m[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(m []uint64, i int)    { m[i>>6] &^= 1 << (uint(i) & 63) }
func hasBit(m []uint64, i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// maskWords is the number of words a bitset of n bits needs.
func maskWords(n int) int { return (n + 63) >> 6 }

// nextSet returns the index of the first set bit of m at or after i,
// -1 when there is none.
func nextSet(m []uint64, i int) int {
	w := i >> 6
	if w >= len(m) {
		return -1
	}
	if word := m[w] >> (uint(i) & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(m); w++ {
		if m[w] != 0 {
			return w<<6 + bits.TrailingZeros64(m[w])
		}
	}
	return -1
}

// nextSetMasked returns the index of the first bit at or after i that
// is set in m and, with term true, set in t or, with term false, clear
// in t; -1 when there is none. m and t have the same length.
func nextSetMasked(m, t []uint64, term bool, i int) int {
	w := i >> 6
	if w >= len(m) {
		return -1
	}
	flip := uint64(0)
	if !term {
		flip = ^uint64(0)
	}
	if word := (m[w] & (t[w] ^ flip)) >> (uint(i) & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(m); w++ {
		if word := m[w] & (t[w] ^ flip); word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// initActivity carves every router's masks out of one network-wide
// backing slice and fills in the constant terminal-slot masks.
func (n *Network) initActivity() {
	total := 0
	for i := range n.routers {
		r := &n.routers[i]
		total += 3*maskWords(r.radix*r.vcs) + maskWords(r.radix)
	}
	words := make([]uint64, total)
	for i := range n.routers {
		r := &n.routers[i]
		pw, sw := maskWords(r.radix*r.vcs), maskWords(r.radix)
		r.act = words[: 2*pw+sw : 2*pw+sw]
		r.waitM = r.act[:pw:pw]
		r.outM = r.act[pw : 2*pw : 2*pw]
		r.srcM = r.act[2*pw:]
		r.termM = words[2*pw+sw : 3*pw+sw : 3*pw+sw]
		words = words[3*pw+sw:]
		for p := 0; p < r.radix; p++ {
			if r.isTerm[p] {
				for vc := 0; vc < r.vcs; vc++ {
					setBit(r.termM, r.pv(p, vc))
				}
			}
		}
	}
}

// idle reports that the router has no queued packet anywhere.
func (r *Router) idle() bool {
	for _, w := range r.act {
		if w != 0 {
			return false
		}
	}
	return true
}

func (r *Router) pushWait(i int, ref int32) {
	r.waitQ[i].push(ref)
	setBit(r.waitM, i)
}

func (r *Router) popWait(i int) int32 {
	ref := r.waitQ[i].pop()
	if r.waitQ[i].len() == 0 {
		clearBit(r.waitM, i)
	}
	return ref
}

func (r *Router) pushOut(i int, ref int32) {
	r.outQ[i].push(ref)
	setBit(r.outM, i)
}

func (r *Router) popOut(i int) int32 {
	ref := r.outQ[i].pop()
	if r.outQ[i].len() == 0 {
		clearBit(r.outM, i)
	}
	return ref
}

func (r *Router) pushSrc(p int, ref int32) {
	r.srcQ[p].push(ref)
	setBit(r.srcM, p)
}

func (r *Router) popSrc(p int) int32 {
	ref := r.srcQ[p].pop()
	if r.srcQ[p].len() == 0 {
		clearBit(r.srcM, p)
	}
	return ref
}

// nextOutPort returns the first port at or after p with a non-empty
// output buffer, -1 when there is none.
func (r *Router) nextOutPort(p int) int {
	i := nextSet(r.outM, p*r.vcs)
	if i < 0 {
		return -1
	}
	return i / r.vcs
}

// markLink records that shard sh has something to pop on link l, after
// a push onto one of the sides sh owns. Dead links carry nothing, so a
// credit frozen on one is not work.
func (sh *shard) markLink(l *link) {
	if !l.dead {
		setBit(sh.linkAct, l.id)
	}
}

// rebuildActivity recomputes every router mask and link bitset from the
// queues.
func (n *Network) rebuildActivity() {
	for ri := range n.routers {
		r := &n.routers[ri]
		clear(r.act)
		for i := range r.waitQ {
			if r.waitQ[i].len() > 0 {
				setBit(r.waitM, i)
			}
			if r.outQ[i].len() > 0 {
				setBit(r.outM, i)
			}
		}
		for p := range r.srcQ {
			if r.srcQ[p].len() > 0 {
				setBit(r.srcM, p)
			}
		}
	}
	for s := range n.shards {
		clear(n.shards[s].linkAct)
	}
	for li := range n.links {
		l := &n.links[li]
		if l.flits.len() > 0 {
			n.shardForRouter(l.dst).markLink(l)
		}
		if l.credits.len() > 0 {
			n.shardForRouter(l.src).markLink(l)
		}
	}
}

// checkActivity verifies that every mask bit matches its queue: a
// non-empty queue with its bit clear would be work no phase ever visits
// again, a set bit on an empty queue (or a dead link) a visit that
// rebuildActivity would not reproduce. Run after every Step under the
// dflydebug build tag.
func (n *Network) checkActivity() error {
	bad := func(router, port, vc int) error {
		return &InvariantError{Kind: "activity mask", Router: router, Port: port, VC: vc, Cycle: n.now}
	}
	for ri := range n.routers {
		r := &n.routers[ri]
		for i := range r.waitQ {
			if (r.waitQ[i].len() > 0) != hasBit(r.waitM, i) || (r.outQ[i].len() > 0) != hasBit(r.outM, i) {
				return bad(ri, i/r.vcs, i%r.vcs)
			}
		}
		for p := range r.srcQ {
			if (r.srcQ[p].len() > 0) != hasBit(r.srcM, p) {
				return bad(ri, p, 0)
			}
		}
	}
	for li := range n.links {
		l := &n.links[li]
		fs, cs := n.shardForRouter(l.dst), n.shardForRouter(l.src)
		fw := !l.dead && l.flits.len() > 0
		cw := !l.dead && l.credits.len() > 0
		if fs == cs {
			if (fw || cw) != hasBit(fs.linkAct, li) {
				return bad(l.src, l.srcPort, -1)
			}
			continue
		}
		if fw != hasBit(fs.linkAct, li) {
			return bad(l.dst, l.dstPort, -1)
		}
		if cw != hasBit(cs.linkAct, li) {
			return bad(l.src, l.srcPort, -1)
		}
	}
	return nil
}
