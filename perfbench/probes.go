package main

import (
	"sync/atomic"
	"time"

	"dragonfly/internal/metrics"
	"dragonfly/internal/sim"
)

// timeEvery is the sampling stride of the routing probe's clock: one
// call in timeEvery per router is timed, which keeps two clock reads off
// most calls while the call counts stay exact.
const timeEvery = 8

// routerCalls is one router's routing-call counters, padded to a cache
// line so routers serviced by different engine shards do not share one.
type routerCalls struct {
	decide, next   atomic.Int64
	timed, timedNS atomic.Int64
	_              [32]byte
}

// countingRouting wraps a sim.Routing and counts every Decide and
// NextHop call, timing a sample of them. It forwards Name, so a network
// built over it has the unwrapped network's snapshot fingerprint and
// simulates identically. Counters are per router and atomic, so it is
// safe under the sharded engine, which calls routing from several
// goroutines at once.
type countingRouting struct {
	inner sim.Routing
	per   []routerCalls
}

func newCountingRouting(inner sim.Routing, routers int) *countingRouting {
	return &countingRouting{inner: inner, per: make([]routerCalls, routers)}
}

func (c *countingRouting) Name() string { return c.inner.Name() }

func (c *countingRouting) Decide(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	rc := &c.per[r.ID]
	if rc.decide.Add(1)%timeEvery != 0 {
		return c.inner.Decide(net, r, hs)
	}
	t := time.Now()
	err := c.inner.Decide(net, r, hs)
	rc.timedNS.Add(int64(time.Since(t)))
	rc.timed.Add(1)
	return err
}

func (c *countingRouting) NextHop(net *sim.Network, r *sim.Router, hs *sim.HopState) error {
	rc := &c.per[r.ID]
	if rc.next.Add(1)%timeEvery != 0 {
		return c.inner.NextHop(net, r, hs)
	}
	t := time.Now()
	err := c.inner.NextHop(net, r, hs)
	rc.timedNS.Add(int64(time.Since(t)))
	rc.timed.Add(1)
	return err
}

// totals sums the per-router counters.
func (c *countingRouting) totals() (decide, next, timed, timedNS int64) {
	for i := range c.per {
		p := &c.per[i]
		decide += p.decide.Load()
		next += p.next.Load()
		timed += p.timed.Load()
		timedNS += p.timedNS.Load()
	}
	return
}

// clockPairNS estimates what one time.Now/time.Since pair adds to a
// timed call, so the routing probe can subtract it.
func clockPairNS() float64 {
	const n = 1 << 16
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		var sink time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sink += time.Since(t)
		}
		_ = sink
		per := float64(time.Since(t0)) / n
		if rep == 0 || per < best {
			best = per
		}
	}
	return best
}

// engineProbe is the traced run's collector: it counts channel flits
// (hops between routers) and ejected packets, and times each simulated
// cycle from one cycle boundary to the next. The engine replays events
// raised inside sharded phases serially, so plain fields suffice.
type engineProbe struct {
	metrics.Nop
	hops, ejected int64
	last          time.Time
	cycleNS       []float64
}

func (p *engineProbe) ChannelFlit(int) { p.hops++ }

func (p *engineProbe) PacketEjected(metrics.Eject) { p.ejected++ }

func (p *engineProbe) CycleEnd(int64) {
	now := time.Now()
	p.cycleNS = append(p.cycleNS, float64(now.Sub(p.last)))
	p.last = now
}
