package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// simWorkload is a closed loop of back-to-back §4.2 runs of one machine,
// each on a fresh network with its own seed derived from the workload
// seed and the job index.
type simWorkload struct {
	p, a, h int
	traffic string
	// shards is the engine shard count of the measured runs; crossShards
	// the count the traced run's cross-check rebuilds the job at.
	shards, crossShards int
	rc                  sim.RunConfig
	// fresh runs every job in its own child process, so set-up time and
	// peak memory are those of a cold process.
	fresh bool
	// extraSetups are machine constructions timed before the loop, for a
	// steady setup_s median when the loop itself runs few jobs.
	extraSetups int
}

const alg = core.AlgUGALLVCH

var simWorkloads = map[string]simWorkload{
	// The paper's 1K-node machine at low load: most queues are idle.
	"ur-low": {p: 4, a: 8, h: 4, traffic: "ur",
		shards: 0, crossShards: 2, rc: sim.DefaultRunConfig(0.1), extraSetups: 15},
	// Worst-case traffic at the UGAL saturation edge: every queue busy.
	"wc-sat-sharded": {p: 4, a: 8, h: 4, traffic: "wc",
		shards: 2, crossShards: 1, rc: sim.DefaultRunConfig(0.5), extraSetups: 15},
	// The balanced radix-39 machine, one short cold-start run per process.
	"scale-40k": {p: 10, a: 20, h: 10, traffic: "ur",
		shards: 2, crossShards: 1, fresh: true,
		rc: sim.RunConfig{Load: 0.1, WarmupCycles: 30, MeasureCycles: 50, DrainCycles: 2000}},
}

// The three ways a job is run.
const (
	legPlain  = "plain"  // as a user would: core-built network, no probes
	legTraced = "traced" // same shard count, routing and engine probes attached
	legCross  = "cross"  // probes at the other shard count, plus snapshot/restore
)

// legResult is one run of one job. It crosses a process boundary for
// fresh workloads, hence the JSON tags.
type legResult struct {
	Digest       string  `json:"digest"`
	Offered      float64 `json:"offered"`
	Accepted     float64 `json:"accepted"`
	LatencyMean  float64 `json:"latency_mean"`
	Minimal      float64 `json:"minimal_fraction"`
	Measured     int64   `json:"measured"`
	Cycles       int64   `json:"cycles"`
	Dropped      int64   `json:"dropped"`
	DrainTimeout bool    `json:"drain_timeout"`

	SystemNS  int64 `json:"system_ns"`
	NetworkNS int64 `json:"network_ns"`
	ShardsNS  int64 `json:"shards_ns"`
	RunNS     int64 `json:"run_ns"`
	MaxRSSKiB int64 `json:"max_rss_kib"`
	// SetupCPUNS and RunCPUNS are the process CPU time (user and system,
	// all threads) spent in set-up and in the run call. Unlike wall time
	// they exclude the time a virtual machine's CPUs are stolen by its
	// host, which on a shared host stretches a two-shard run's wall time
	// several-fold.
	SetupCPUNS int64 `json:"setup_cpu_ns"`
	RunCPUNS   int64 `json:"run_cpu_ns"`

	Decide   int64     `json:"decide"`
	NextHop  int64     `json:"nexthop"`
	Timed    int64     `json:"timed"`
	TimedNS  int64     `json:"timed_ns"`
	Hops     int64     `json:"hops"`
	Ejected  int64     `json:"ejected"`
	CycleNS  []float64 `json:"cycle_ns,omitempty"`
	SnapNS   int64     `json:"snapshot_ns"`
	SnapSize int64     `json:"snapshot_bytes"`
	RestNS   int64     `json:"restore_ns"`
}

func (l legResult) setupNS() int64 { return l.SystemNS + l.NetworkNS + l.ShardsNS }

// deriveSeed gives job i of a workload seed its own simulation seed
// (splitmix64; never 0, which the engine would replace by its default).
func deriveSeed(seed uint64, job int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(job+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// runLeg builds a job's machine, seeded with sysSeed, and its network,
// and runs it once.
func runLeg(w simWorkload, sysSeed uint64, leg string) (legResult, error) {
	var out legResult
	wl := core.Workload{Traffic: w.traffic}
	t0, c0 := time.Now(), cpuNS()
	sys, err := core.NewSystem(core.SystemConfig{P: w.p, A: w.a, H: w.h, Seed: sysSeed})
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	var net *sim.Network
	var cr *countingRouting
	if leg == legPlain {
		net, err = sys.NewNetworkFor(alg, wl)
	} else {
		net, cr, err = probedNetwork(sys, wl)
	}
	if err != nil {
		return out, err
	}
	t2 := time.Now()
	shards := w.shards
	if leg == legCross {
		shards = w.crossShards
	}
	if err := net.SetShards(shards); err != nil {
		return out, err
	}
	t3 := time.Now()
	setupCPU := cpuNS() - c0
	var probe *engineProbe
	if cr != nil {
		probe = &engineProbe{cycleNS: make([]float64, 0, w.rc.WarmupCycles+w.rc.MeasureCycles+1024)}
		net.AttachMetrics(probe)
	}
	tRun := time.Now()
	if probe != nil {
		probe.last = tRun
	}
	c3 := cpuNS()
	res, err := sim.RunCtx(context.Background(), net, w.rc)
	t4, c4 := time.Now(), cpuNS()
	if err != nil {
		return out, err
	}
	out = legResult{
		Digest: simDigest(res), Offered: res.Offered, Accepted: res.Accepted,
		LatencyMean: res.Latency.Mean(), Minimal: res.MinimalFraction, Measured: res.Latency.Count(),
		Cycles: res.Cycles, Dropped: res.Dropped, DrainTimeout: res.DrainTimeout,
		SystemNS: int64(t1.Sub(t0)), NetworkNS: int64(t2.Sub(t1)),
		ShardsNS: int64(t3.Sub(t2)), RunNS: int64(t4.Sub(tRun)),
		SetupCPUNS: setupCPU, RunCPUNS: c4 - c3,
	}
	if cr != nil {
		out.Decide, out.NextHop, out.Timed, out.TimedNS = cr.totals()
		out.Hops, out.Ejected, out.CycleNS = probe.hops, probe.ejected, probe.cycleNS
	}
	if leg == legCross {
		if err := snapshotRoundTrip(sys, w, wl, net, &out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// probedNetwork builds the network NewNetworkFor builds, with the
// routing algorithm wrapped in the counting probe.
func probedNetwork(sys *core.System, wl core.Workload) (*sim.Network, *countingRouting, error) {
	tr, err := sys.TrafficFor(wl)
	if err != nil {
		return nil, nil, err
	}
	rt, err := sys.Routing(alg)
	if err != nil {
		return nil, nil, err
	}
	cr := newCountingRouting(rt, sys.Topo.Routers())
	net, err := sim.New(sys.Topo, sys.SimConfig(alg), cr, tr)
	return net, cr, err
}

// snapshotRoundTrip snapshots the finished network, restores it into a
// fresh network at the measured shard count and checks that the restored
// network snapshots to the same bytes.
func snapshotRoundTrip(sys *core.System, w simWorkload, wl core.Workload, net *sim.Network, out *legResult) error {
	t0 := time.Now()
	snap, err := net.Snapshot()
	if err != nil {
		return err
	}
	out.SnapNS, out.SnapSize = int64(time.Since(t0)), int64(len(snap))
	runtime.GC() // net is dead here: free it before the second network is built
	fresh, err := sys.NewNetworkFor(alg, wl)
	if err != nil {
		return err
	}
	if err := fresh.SetShards(w.shards); err != nil {
		return err
	}
	t1 := time.Now()
	if err := fresh.Restore(snap); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	out.RestNS = int64(time.Since(t1))
	again, err := fresh.Snapshot()
	if err != nil {
		return err
	}
	if !bytes.Equal(snap, again) {
		return errors.New("restored network snapshots to different bytes")
	}
	return nil
}

// sane checks what must hold for any seed: nothing dropped, the drain
// finished, packets were measured, and accepted load tracks offered.
func (l legResult) sane(w simWorkload) error {
	switch {
	case l.Dropped != 0:
		return fmt.Errorf("%d packets dropped on a pristine machine", l.Dropped)
	case l.DrainTimeout:
		return errors.New("drain timed out")
	case l.Measured == 0:
		return errors.New("no packets measured")
	case l.Cycles < int64(w.rc.WarmupCycles+w.rc.MeasureCycles):
		return fmt.Errorf("only %d cycles simulated", l.Cycles)
	case l.Accepted < 0.9*l.Offered || l.Accepted > 1.1*l.Offered:
		return fmt.Errorf("accepted %.4f at offered %.4f", l.Accepted, l.Offered)
	}
	return nil
}

// leg runs one leg in this process or, for fresh workloads, in a child
// process running this binary in child mode.
func (b *bench) leg(w simWorkload, job int, leg string) (legResult, error) {
	if !w.fresh {
		// Each job starts from a collected heap, so the process's peak
		// resident set is that of one job rather than of GC timing.
		runtime.GC()
		return runLeg(w, deriveSeed(b.seed, job), leg)
	}
	exe, err := os.Executable()
	if err != nil {
		return legResult{}, err
	}
	cmd := exec.Command(exe, "--workload", b.workload, "--seed", strconv.FormatUint(b.seed, 10),
		"--child-job", strconv.Itoa(job), "--child-leg", leg)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return legResult{}, fmt.Errorf("child job %d (%s): %w", job, leg, err)
	}
	var out legResult
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return legResult{}, fmt.Errorf("child job %d (%s): %w", job, leg, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.MaxRSSKiB = ru.Maxrss
	}
	return out, nil
}

// childMain is the child-process side of leg.
func childMain(workload string, seed uint64, job int, leg string) error {
	w, ok := simWorkloads[workload]
	if !ok {
		return fmt.Errorf("no simulation workload %q", workload)
	}
	out, err := runLeg(w, deriveSeed(seed, job), leg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runSim measures a simulation workload: with trace off, the closed loop
// of plain runs; with trace on, each job plain then probed, plus one
// cross-shard leg with a snapshot round trip.
func (b *bench) runSim(w simWorkload) error {
	var setups []float64
	for i := 0; i < w.extraSetups; i++ {
		runtime.GC()
		c0 := cpuNS()
		sys, err := core.NewSystem(core.SystemConfig{P: w.p, A: w.a, H: w.h, Seed: deriveSeed(b.seed, -1-i)})
		if err != nil {
			return err
		}
		net, err := sys.NewNetworkFor(alg, core.Workload{Traffic: w.traffic})
		if err != nil {
			return err
		}
		if err := net.SetShards(w.shards); err != nil {
			return err
		}
		setups = append(setups, float64(cpuNS()-c0)/1e9)
	}

	var runs []jobRun
	start := time.Now()
	deadline := start.Add(b.duration)
	for job := 0; job == 0 || time.Now().Before(deadline); job++ {
		jobStart := time.Now()
		b.attempted++
		u, err := b.leg(w, job, legPlain)
		if err == nil {
			err = u.sane(w)
		}
		if err == nil {
			err = b.check.check(strconv.Itoa(job), u.Digest)
		}
		if err != nil {
			b.fail("job %d: %v", job, err)
			continue
		}
		r := jobRun{job: job, plain: u}
		if b.trace {
			r.traced, err = b.leg(w, job, legTraced)
			if err == nil && r.traced.Digest != u.Digest {
				err = fmt.Errorf("traced digest %s differs from plain %s", r.traced.Digest, u.Digest)
			}
			if err != nil {
				b.fail("job %d traced: %v", job, err)
				continue
			}
		}
		runs = append(runs, r)
		if b.trace && time.Since(jobStart) > time.Until(deadline) {
			break // the next pair would end well past the run time
		}
	}
	wall := time.Since(start)
	if len(runs) == 0 {
		return errors.New("every job failed")
	}
	if !b.trace {
		b.simEndToEnd(w, runs, setups, wall)
		return nil
	}
	first := runs[0]
	b.simLayers(runs, b.crossLeg(w, first))
	b.overhead(runs)
	return b.serviceProbe(w, first)
}

// crossLeg reruns r's job probed at the other shard count, with a
// snapshot round trip; its statistics must equal the plain leg's.
func (b *bench) crossLeg(w simWorkload, r jobRun) legResult {
	b.attempted++
	x, err := b.leg(w, r.job, legCross)
	if err == nil && r.plain.Digest != x.Digest {
		err = fmt.Errorf("digest at %d shards %s differs from %s at %d", w.crossShards, x.Digest, r.plain.Digest, w.shards)
	}
	if err != nil {
		b.fail("job %d cross-shard: %v", r.job, err)
	}
	return x
}

// overhead reports how much longer the probed runs took than the plain.
func (b *bench) overhead(runs []jobRun) {
	var plainNS, tracedNS float64
	for _, r := range runs {
		plainNS += float64(r.plain.RunCPUNS)
		tracedNS += float64(r.traced.RunCPUNS)
	}
	b.res.add("trace.overhead_frac", tracedNS/plainNS-1, "fraction", len(runs))
}

// jobRun is one job of the loop: its plain leg and, with trace on, its
// probed leg.
type jobRun struct {
	job           int
	plain, traced legResult
}

func (b *bench) simEndToEnd(w simWorkload, runs []jobRun, setups []float64, wall time.Duration) {
	var lat, rss, rate, wallRate []float64
	var cpu float64
	for _, r := range runs {
		l := r.plain
		lat = append(lat, float64(l.setupNS()+l.RunNS)/1e6)
		setups = append(setups, float64(l.SetupCPUNS)/1e9)
		rss = append(rss, float64(l.MaxRSSKiB)/1024)
		rate = append(rate, float64(l.Cycles)/float64(l.RunCPUNS)*1e9)
		wallRate = append(wallRate, float64(l.Cycles)/float64(l.RunNS)*1e9)
		cpu += float64(l.SetupCPUNS + l.RunCPUNS)
	}
	n := len(runs)
	b.res.add("sim_cycles_per_cpu_s", stats.Median(rate), "cycles/cpu-s", n)
	b.res.add("cpu_ms_per_job", cpu/float64(n)/1e6, "ms", n)
	b.res.add("setup_s", stats.Median(setups), "s", len(setups))
	if w.fresh {
		b.res.add("peak_rss_mb", stats.Median(rss), "MiB", n)
	} else {
		b.res.add("peak_rss_mb", selfMaxRSSMiB(), "MiB", 1)
	}
	b.res.extra("sim_cycles_per_s", wallRate, 0.5, "cycles/s")
	b.res.extra("job_latency_p50_ms", lat, 0.5, "ms")
	b.res.extras = append(b.res.extras, metric{Name: "jobs_per_s", Value: float64(n) / wall.Seconds(), Unit: "jobs/s", Samples: n})
}

func (b *bench) simLayers(runs []jobRun, x legResult) {
	var sysMS, netMS, shMS, cycNS []float64
	var plainNS, cycles, hops, ejected, decide, next, timed, timedNS float64
	for _, r := range runs {
		u, t := r.plain, r.traced
		sysMS = append(sysMS, float64(u.SystemNS)/1e6)
		netMS = append(netMS, float64(u.NetworkNS)/1e6)
		shMS = append(shMS, float64(u.ShardsNS)/1e6)
		plainNS += float64(u.RunCPUNS)
		cycles += float64(t.Cycles)
		hops += float64(t.Hops)
		ejected += float64(t.Ejected)
		decide += float64(t.Decide)
		next += float64(t.NextHop)
		timed += float64(t.Timed)
		timedNS += float64(t.TimedNS)
		cycNS = append(cycNS, t.CycleNS...)
	}
	jobs := float64(len(runs))
	cycUS := make([]float64, len(cycNS))
	for i, c := range cycNS {
		cycUS[i] = c / 1e3
	}
	nsPerCall := timedNS/timed - b.clockNS
	b.res.addPercentile("core.new_system_ms", sysMS, 0.5, "ms")
	b.res.addPercentile("core.new_network_ms", netMS, 0.5, "ms")
	b.res.addPercentile("sim.set_shards_ms", shMS, 0.5, "ms")
	b.res.addPercentile("sim.cycle_us_p50", cycUS, 0.5, "us")
	b.res.addPercentile("sim.cycle_us_p99", cycUS, 0.99, "us")
	b.res.add("sim.flit_hops_per_cycle", hops/cycles, "hops/cycle", 0)
	b.res.add("sim.packets_ejected", ejected/jobs, "count", 0)
	b.res.add("sim.ns_per_flit_hop", plainNS/hops, "ns", len(runs))
	b.res.add("sim.snapshot_ms", float64(x.SnapNS)/1e6, "ms", 1)
	b.res.add("sim.snapshot_mib", float64(x.SnapSize)/(1<<20), "MiB", 1)
	b.res.add("sim.restore_ms", float64(x.RestNS)/1e6, "ms", 1)
	b.res.add("routing.decide_calls", decide/jobs, "count", 0)
	b.res.add("routing.nexthop_calls", next/jobs, "count", 0)
	b.res.add("routing.calls_per_cycle", (decide+next)/cycles, "calls/cycle", 0)
	b.res.add("routing.ns_per_call", nsPerCall, "ns", int(timed))
	b.res.add("routing.time_share", nsPerCall*(decide+next)/plainNS, "fraction", len(runs))
}

// cpuNS is the CPU time this process has used so far, all threads.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// selfMaxRSSMiB is this process's peak resident set.
func selfMaxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
