// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks that the simulated results are
// correct, and prints every metric by name with its unit; the last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
// With --trace 0 it measures the end-to-end metrics with no probes
// attached. Host time is counted as process CPU time, not wall time: on
// a shared virtual machine the hypervisor steals CPU in episodes that
// stretch a two-shard run's wall time up to 2.5-fold while its CPU time
// moves by a few percent. Wall-clock figures (job latency, jobs and
// cycles per second) are printed in the human-readable lines, with the
// share of CPU stolen during the run.
//
// With --trace 1 it measures the per-layer metrics by timing calls into
// internal/core, internal/sim, internal/routing and internal/serve from
// outside, with a counting wrapper around the routing algorithm and a
// collector attached to the engine, and checks that the probed runs
// reproduce the plain ones bit for bit.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload ur-low --seed 1 --seconds 20 --trace 0
//
// For seed 1 the simulated statistics of each job must match the digests
// in pins.json. After a deliberate change of simulated behaviour, rebuild
// the pins by running each workload long enough to cover the jobs a run
// reaches, with --write-pins perfbench/pins.json.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir holds build outputs and scratch data, relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

// unitMetric is a declared metric and its unit.
type unitMetric struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in
// report order. Every workload reports all of them; one a run could not
// measure reads 0 and is marked omitted in the human-readable lines.
var endToEnd = []unitMetric{
	{"sim_cycles_per_cpu_s", "cycles/cpu-s"},
	{"cpu_ms_per_job", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []unitMetric{
	{"core.new_system_ms", "ms"},
	{"core.new_network_ms", "ms"},
	{"sim.set_shards_ms", "ms"},
	{"sim.cycle_us_p50", "us"},
	{"sim.cycle_us_p99", "us"},
	{"sim.flit_hops_per_cycle", "hops/cycle"},
	{"sim.packets_ejected", "count"},
	{"sim.ns_per_flit_hop", "ns"},
	{"sim.snapshot_ms", "ms"},
	{"sim.snapshot_mib", "MiB"},
	{"sim.restore_ms", "ms"},
	{"routing.decide_calls", "count"},
	{"routing.nexthop_calls", "count"},
	{"routing.calls_per_cycle", "calls/cycle"},
	{"routing.ns_per_call", "ns"},
	{"routing.time_share", "fraction"},
	{"serve.open_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.report_fetch_ms_p50", "ms"},
	{"serve.report_kib_p50", "KiB"},
	{"serve.cache_hit_ratio", "fraction"},
	{"serve.rejected_429", "count"},
	{"trace.overhead_frac", "fraction"},
}

// workloads lists every workload name in report order.
var workloads = []string{"ur-low", "wc-sat-sharded", "scale-40k", "serve-mixed"}

// bench is one run of one workload.
type bench struct {
	workload  string
	seed      uint64
	duration  time.Duration
	trace     bool
	res       results
	attempted int
	failed    int
	check     *checker
	clockNS   float64
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", b.workload, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a probed run")
	writePins := flag.String("write-pins", "", "record the default seed's job digests into this pins file instead of checking them")
	childJob := flag.Int("child-job", -1, "internal: run one job of a fresh-process workload and print its result")
	childLeg := flag.String("child-leg", legPlain, "internal: the leg the child runs")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *childJob >= 0 {
		return childMain(*workload, *seed, *childJob, *childLeg)
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	case *seconds < 1:
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case *writePins != "" && *seed != defaultSeed:
		return fmt.Errorf("--write-pins records seed %d only", defaultSeed)
	}
	check, err := newChecker(*workload, *seed, *writePins != "")
	if err != nil {
		return err
	}
	b := &bench{workload: *workload, seed: *seed, duration: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, check: check}
	if b.trace {
		b.clockNS = clockPairNS()
	}
	printHost()
	steal := stealMeter()
	if w, ok := simWorkloads[b.workload]; ok {
		err = b.runSim(w)
	} else {
		err = b.runServe()
	}
	if err != nil {
		return err
	}
	fmt.Printf("# host: %.1f%% of CPU time was stolen by the hypervisor during the run\n", 100*steal())
	if *writePins != "" {
		return check.writePins(*writePins)
	}
	if check.active {
		fmt.Printf("# %s: %d job digests matched the pins for seed %d\n", b.workload, check.checked, b.seed)
	}
	return b.print()
}

// print writes the human-readable metric lines and then the JSON line.
func (b *bench) print() error {
	declared := endToEnd
	if b.trace {
		declared = perLayer
	}
	out := map[string]any{}
	for _, d := range declared {
		m, ok := b.res.get(d.name)
		if !ok {
			m = metric{Name: d.name, Omitted: "not measured in this run"}
		}
		if m.Omitted == "" && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			m.Value, m.Omitted = 0, "not a number"
		}
		if m.Unit != "" && m.Unit != d.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		printMetric(b.workload, m, d.unit)
		out[d.name] = map[string]any{"value": m.Value, "unit": d.unit}
	}
	for _, m := range b.res.extras {
		printMetric(b.workload, m, m.Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0 && b.attempted > 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetric(workload string, m metric, unit string) {
	if m.Omitted != "" {
		fmt.Printf("# %s %-26s omitted: %s\n", workload, m.Name, m.Omitted)
		return
	}
	n := ""
	if m.Samples > 0 {
		n = fmt.Sprintf("  (n=%d)", m.Samples)
	}
	fmt.Printf("# %s %-26s %14.6g %s%s\n", workload, m.Name, m.Value, unit, n)
}

// printHost stamps the run with the host and the code it measured.
func printHost() {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit := "none (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Printf("# host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
}

// stealMeter returns a function giving the share of all CPU time the
// hypervisor stole since stealMeter was called (0 where /proc/stat has
// no steal column). Wall-clock figures move with it; CPU-time figures
// do not.
func stealMeter() func() float64 {
	read := func() (steal, total float64) {
		b, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0
		}
		line, _, _ := strings.Cut(string(b), "\n")
		for i, f := range strings.Fields(line)[1:] {
			var v float64
			fmt.Sscan(f, &v)
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	s0, t0 := read()
	return func() float64 {
		s1, t1 := read()
		if t1 <= t0 {
			return 0
		}
		return (s1 - s0) / (t1 - t0)
	}
}

// sourceDigest hashes go.mod and every Go file under internal/ and
// perfbench/, identifying the measured code where no commit is at hand.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"internal", "perfbench"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
