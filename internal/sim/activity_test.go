package sim_test

import (
	"reflect"
	"testing"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// portFaults is a literal fault view: failed routers and failed
// (router, port) channel ends.
type portFaults struct {
	routers map[int]bool
	ports   map[[2]int]bool
}

func (f portFaults) RouterDown(r int) bool  { return f.routers[r] }
func (f portFaults) PortDown(r, p int) bool { return f.ports[[2]int{r, p}] }

// failRecoverTimeline fails router 5 and every global channel of
// router 0 at cycle 100 and brings them all back at cycle 250.
func failRecoverTimeline(d *topology.Dragonfly) []sim.Epoch {
	ports := map[[2]int]bool{}
	for p := 0; p < d.Radix(0); p++ {
		if d.Port(0, p).Class == topology.ClassGlobal {
			ports[[2]int{0, p}] = true
		}
	}
	failed := topology.NewDegraded(d, portFaults{routers: map[int]bool{5: true}, ports: ports})
	return []sim.Epoch{
		{Start: 0, View: topology.NewDegraded(d, nil)},
		{Start: 100, View: failed},
		{Start: 250, View: topology.NewDegraded(d, nil)},
	}
}

func zeroWords(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestActivityMasksDrainToZero checks the activity masks against the
// queues they summarise: once a loaded network drains, every router
// mask and every shard's link bitset is zero, and a network restored
// from a mid-run snapshot rebuilds exactly the masks the uninterrupted
// network maintained incrementally up to that cycle.
func TestActivityMasksDrainToZero(t *testing.T) {
	d := testDragonfly(t)
	for _, shards := range []int{1, 3} {
		for _, faulted := range []bool{false, true} {
			build := func() *sim.Network {
				net := newNet(t, d, testConfig(), buildAlg(t, d, "UGAL-L_VCH"), traffic.NewUniformRandom(d.Nodes()))
				if faulted {
					if err := net.SetTimeline(failRecoverTimeline(d)); err != nil {
						t.Fatalf("SetTimeline: %v", err)
					}
				}
				if err := net.SetShards(shards); err != nil {
					t.Fatalf("SetShards: %v", err)
				}
				return net
			}
			net := build()
			net.SetLoad(0.4)
			var snap []byte
			var wantRouters []uint64
			var wantLinks [][]uint64
			for c := 1; c <= 300; c++ {
				if err := net.Step(); err != nil {
					t.Fatalf("shards=%d faulted=%v: Step %d: %v", shards, faulted, c, err)
				}
				if c == 180 {
					var err error
					if snap, err = net.Snapshot(); err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					wantRouters, wantLinks = sim.ActivityState(net)
				}
			}
			if zeroWords(wantRouters) {
				t.Fatalf("shards=%d faulted=%v: no router held work at load 0.4", shards, faulted)
			}

			restored := build()
			if err := restored.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if gotRouters, gotLinks := sim.ActivityState(restored); !reflect.DeepEqual(gotRouters, wantRouters) || !reflect.DeepEqual(gotLinks, wantLinks) {
				t.Errorf("shards=%d faulted=%v: restored masks differ from the uninterrupted network's at cycle 180", shards, faulted)
			}

			// Drain at load 0 until no packet is left, then long enough
			// for the last credits to ride back upstream.
			net.SetLoad(0)
			for c := 0; net.InFlight() > 0; c++ {
				if c == 5000 {
					t.Fatalf("shards=%d faulted=%v: %d packets still in flight after 5000 drain cycles", shards, faulted, net.InFlight())
				}
				if err := net.Step(); err != nil {
					t.Fatalf("drain Step: %v", err)
				}
			}
			for c := 0; c < 200; c++ {
				if err := net.Step(); err != nil {
					t.Fatalf("drain Step: %v", err)
				}
			}
			routers, links := sim.ActivityState(net)
			if !zeroWords(routers) {
				t.Errorf("shards=%d faulted=%v: router masks not zero after draining", shards, faulted)
			}
			for s, l := range links {
				if !zeroWords(l) {
					t.Errorf("shards=%d faulted=%v: shard %d link bitset not zero after draining", shards, faulted, s)
				}
			}
		}
	}
}
