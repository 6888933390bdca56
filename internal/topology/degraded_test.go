package topology

import "testing"

func degTestDF(t *testing.T) *Dragonfly {
	t.Helper()
	d, err := NewDragonfly(2, 4, 2, 0) // g=9, 36 routers, 72 terminals
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	return d
}

// fakeFault is a literal FaultView for tests.
type fakeFault struct {
	routers map[int]bool
	ports   map[[2]int]bool
}

func (f fakeFault) RouterDown(r int) bool  { return f.routers[r] }
func (f fakeFault) PortDown(r, p int) bool { return f.ports[[2]int{r, p}] }

func TestDegradedEmptyPlanIsPristine(t *testing.T) {
	d := degTestDF(t)
	dg := NewDegraded(d, nil)
	for r := 0; r < d.Routers(); r++ {
		if dg.RouterDown(r) {
			t.Fatalf("router %d down under empty plan", r)
		}
		for p := 0; p < d.Radix(r); p++ {
			if !dg.Alive(r, p) {
				t.Fatalf("port (%d,%d) dead under empty plan", r, p)
			}
		}
	}
	if dg.AliveTerminals() != d.Terminals() {
		t.Errorf("AliveTerminals = %d, want %d", dg.AliveTerminals(), d.Terminals())
	}
	if !dg.Connected() {
		t.Error("pristine network reported disconnected")
	}
	r, g, l, tm := dg.FaultCounts()
	if r+g+l+tm != 0 {
		t.Errorf("FaultCounts = (%d,%d,%d,%d), want zeros", r, g, l, tm)
	}
	// LiveGlobalSlot must match GlobalSlot exactly: routing with an empty
	// fault plan stays bit-identical to pristine routing.
	for ga := 0; ga < d.G; ga++ {
		for gb := 0; gb < d.G; gb++ {
			if ga == gb {
				continue
			}
			n := d.ChannelsBetween(ga, gb)
			if dg.LiveChannels(ga, gb) != n {
				t.Fatalf("LiveChannels(%d,%d) = %d, want %d", ga, gb, dg.LiveChannels(ga, gb), n)
			}
			for m := 0; m < n; m++ {
				if got, want := dg.LiveGlobalSlot(ga, gb, m), d.GlobalSlot(ga, gb, m); got != want {
					t.Fatalf("LiveGlobalSlot(%d,%d,%d) = %d, want GlobalSlot %d", ga, gb, m, got, want)
				}
			}
		}
	}
}

func TestDegradedChannelDeadBothEnds(t *testing.T) {
	d := degTestDF(t)
	// Kill the first global channel of router 0 from one side only; the
	// degraded view must see both ends dead.
	var port = -1
	for i := 0; i < d.Radix(0); i++ {
		if d.Port(0, i).Class == ClassGlobal {
			port = i
			break
		}
	}
	pt := d.Port(0, port)
	dg := NewDegraded(d, fakeFault{ports: map[[2]int]bool{{0, port}: true}})
	if dg.Alive(0, port) {
		t.Error("failed port still alive")
	}
	if dg.Alive(pt.PeerRouter, pt.PeerPort) {
		t.Error("peer end of a failed channel still alive")
	}
	if _, g, _, _ := dg.FaultCounts(); g != 1 {
		t.Errorf("dead global channels = %d, want 1", g)
	}
	ga, gb := d.RouterGroup(0), d.RouterGroup(pt.PeerRouter)
	if dg.LiveChannels(ga, gb) != d.ChannelsBetween(ga, gb)-1 {
		t.Errorf("LiveChannels(%d,%d) = %d, want %d", ga, gb, dg.LiveChannels(ga, gb), d.ChannelsBetween(ga, gb)-1)
	}
	if !dg.Connected() {
		t.Error("one dead channel disconnected the network")
	}
}

func TestDegradedRouterDownKillsEverything(t *testing.T) {
	d := degTestDF(t)
	const victim = 5
	dg := NewDegraded(d, fakeFault{routers: map[int]bool{victim: true}})
	if !dg.RouterDown(victim) {
		t.Fatal("victim not down")
	}
	for p := 0; p < d.Radix(victim); p++ {
		if dg.Alive(victim, p) {
			t.Errorf("port %d of the failed router still alive", p)
		}
	}
	// Its terminals are gone; everyone else's stay.
	for tm := 0; tm < d.Terminals(); tm++ {
		want := d.TerminalRouter(tm) != victim
		if got := !dg.TerminalDown(tm); got != want {
			t.Errorf("terminal %d alive = %v, want %v", tm, got, want)
		}
	}
	if dg.AliveTerminals() != d.Terminals()-d.P {
		t.Errorf("AliveTerminals = %d, want %d", dg.AliveTerminals(), d.Terminals()-d.P)
	}
	r, g, l, tm := dg.FaultCounts()
	if r != 1 || g != d.H || l != d.A-1 || tm != d.P {
		t.Errorf("FaultCounts = (%d,%d,%d,%d), want (1,%d,%d,%d)", r, g, l, tm, d.H, d.A-1, d.P)
	}
	// The rest of the fabric survives a single router.
	if !dg.Connected() {
		t.Error("one failed router disconnected the surviving fabric")
	}
}

func TestDegradedDisconnection(t *testing.T) {
	d := degTestDF(t)
	// Cut every global channel of group 0: its routers survive but the
	// group is unreachable, so the live slots and Connected must say so.
	ports := map[[2]int]bool{}
	for idx := 0; idx < d.A; idx++ {
		r := d.GroupRouter(0, idx)
		for p := 0; p < d.Radix(r); p++ {
			if d.Port(r, p).Class == ClassGlobal {
				ports[[2]int{r, p}] = true
			}
		}
	}
	dg := NewDegraded(d, fakeFault{ports: ports})
	for gb := 1; gb < d.G; gb++ {
		if dg.LiveChannels(0, gb) != 0 {
			t.Errorf("LiveChannels(0,%d) = %d, want 0", gb, dg.LiveChannels(0, gb))
		}
		if dg.LiveGlobalSlot(0, gb, 0) != -1 {
			t.Errorf("LiveGlobalSlot(0,%d,0) != -1", gb)
		}
	}
	if dg.LiveChannels(1, 2) != d.ChannelsBetween(1, 2) {
		t.Error("isolating group 0 cut channels between other groups")
	}
	if dg.Connected() {
		t.Error("Connected() true with group 0 fully cut off")
	}
	// Terminals are still attached to their (local) routers.
	if dg.AliveTerminals() != d.Terminals() {
		t.Errorf("AliveTerminals = %d, want %d (terminal links untouched)", dg.AliveTerminals(), d.Terminals())
	}
}

// TestLiveInterGroupMatchesEnumeration checks the bitset draw against
// the definition: candidates are the groups gi != gs with a live
// channel gs–gi and, unless gi == gd, a live channel gi–gd, numbered in
// ascending order. The 73-group machine spans two mask words.
func TestLiveInterGroupMatchesEnumeration(t *testing.T) {
	d, err := NewDragonfly(1, 8, 9, 0)
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	if d.G <= 64 {
		t.Fatalf("machine has %d groups, want more than one mask word", d.G)
	}
	for _, every := range []int{0, 2, 3, 7} {
		ports := map[[2]int]bool{}
		k := 0
		for r := 0; r < d.Routers(); r++ {
			for p := 0; p < d.Radix(r); p++ {
				if d.Port(r, p).Class == ClassGlobal {
					if every > 0 && k%every != 0 {
						ports[[2]int{r, p}] = true
					}
					k++
				}
			}
		}
		dg := NewDegraded(d, fakeFault{ports: ports})
		for gs := 0; gs < d.G; gs++ {
			for gd := 0; gd < d.G; gd++ {
				var cands []int
				for gi := 0; gi < d.G; gi++ {
					if gi != gs && dg.LiveChannels(gs, gi) > 0 && (gi == gd || dg.LiveChannels(gi, gd) > 0) {
						cands = append(cands, gi)
					}
				}
				for _, draw := range []uint64{0, 1, 63, 64, 1<<63 + 5, ^uint64(0)} {
					gi, ok := dg.LiveInterGroup(gs, gd, draw)
					if len(cands) == 0 {
						if ok {
							t.Fatalf("every=%d gs=%d gd=%d: drew %d with no candidates", every, gs, gd, gi)
						}
						continue
					}
					if want := cands[draw%uint64(len(cands))]; !ok || gi != want {
						t.Fatalf("every=%d gs=%d gd=%d draw=%d: got (%d,%v), want %d", every, gs, gd, draw, gi, ok, want)
					}
				}
			}
		}
	}
}
