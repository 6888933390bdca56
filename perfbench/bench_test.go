package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/sim"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so sorting matters
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1, 0.5, true, 1},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	}
	for _, c := range cases {
		v, ok := percentile(xs(c.n), c.q)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("percentile(n=%d, q=%g) = %g, %t; want %g, %t", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

func TestMedianAlwaysReportedTailOmitted(t *testing.T) {
	var r results
	few := []float64{3, 1, 2, 4}
	r.addPercentile("lat_p50", few, 0.5, "ms")
	r.addPercentile("lat_p90", few, 0.9, "ms")
	r.addPercentile("none_p50", nil, 0.5, "ms")
	if m, _ := r.get("lat_p50"); m.Omitted != "" || m.Value != 2.5 || m.Samples != 4 {
		t.Errorf("median of 4 samples: %+v", m)
	}
	if m, _ := r.get("lat_p90"); m.Omitted == "" || m.Value != 0 || m.Samples != 4 {
		t.Errorf("p90 of 4 samples must be omitted with its count: %+v", m)
	}
	if m, _ := r.get("none_p50"); m.Omitted == "" {
		t.Errorf("median of no samples must be omitted: %+v", m)
	}
	r.extra("lat_p90", few, 0.9, "ms")
	if len(r.extras) != 1 || r.extras[0].Omitted == "" {
		t.Errorf("extra p90 of 4 samples must be omitted: %+v", r.extras)
	}
}

func TestSimDigestCoversEveryStatistic(t *testing.T) {
	base := sim.Result{Cycles: 5000}
	base.Offered, base.Accepted, base.MinimalFraction = 0.1, 0.0998, 0.9
	base.Latency.Add(4)
	base.MinLatency.Add(4)
	d0 := simDigest(base)
	if simDigest(base) != d0 {
		t.Fatal("digest is not a function of the result")
	}
	mutations := map[string]func(r *sim.Result){
		"accepted":       func(r *sim.Result) { r.Accepted += 1e-12 },
		"offered":        func(r *sim.Result) { r.Offered = 0.2 },
		"latency":        func(r *sim.Result) { r.Latency.Add(5) },
		"min latency":    func(r *sim.Result) { r.MinLatency.Add(5) },
		"nonmin latency": func(r *sim.Result) { r.NonminLatency.Add(9) },
		"cycles":         func(r *sim.Result) { r.Cycles++ },
		"dropped":        func(r *sim.Result) { r.Dropped = 1 },
		"drain timeout":  func(r *sim.Result) { r.DrainTimeout = true },
		"minimal":        func(r *sim.Result) { r.MinimalFraction = 0.8 },
	}
	for name, mutate := range mutations {
		r := base
		mutate(&r)
		if simDigest(r) == d0 {
			t.Errorf("changing %s leaves the digest unchanged", name)
		}
	}
}

func TestReportDigestComparesSimulatedContentOnly(t *testing.T) {
	a := `{"schema_version":1,"kind":"run","seed":7,"points":[{"load":0.1,"result":{"accepted":0.1,"cycles":2010}}],"windows":[{"start":0}]}`
	b := `{
  "kind": "run", "seed": 7, "profile": {"allocate_ms": 3.2},
  "points": [ {"result": {"cycles": 2010, "accepted": 0.1}, "load": 0.1} ],
  "windows": [ {"start": 0} ]
}`
	c := strings.Replace(a, "2010", "2011", 1)
	da, err := reportDigest([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	db, _ := reportDigest([]byte(b))
	dc, _ := reportDigest([]byte(c))
	if da != db {
		t.Errorf("layout and extra fields changed the digest: %s vs %s", da, db)
	}
	if da == dc {
		t.Error("a changed point left the digest unchanged")
	}
	if _, err := reportDigest([]byte(`{"kind":"run"}`)); err == nil {
		t.Error("a report without points must not digest")
	}
}

func TestCheckerComparesPinnedDigests(t *testing.T) {
	c := &checker{workload: "w", active: true, pins: map[string]string{"0": "aa"}}
	if err := c.check("0", "aa"); err != nil {
		t.Errorf("matching digest: %v", err)
	}
	if err := c.check("0", "ab"); err == nil {
		t.Error("a mismatching digest must fail")
	}
	if err := c.check("1", "zz"); err != nil {
		t.Errorf("a job beyond the pins is not checked: %v", err)
	}
	if c.checked != 2 {
		t.Errorf("checked = %d, want 2", c.checked)
	}
	other := &checker{workload: "w", active: false, pins: c.pins}
	if err := other.check("0", "ab"); err != nil {
		t.Errorf("other seeds are not pinned: %v", err)
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(p[w]) == 0 {
			t.Errorf("no pinned digests for %s", w)
		}
	}
}

// TestProbesReproducePinnedRun runs the first ur-low job plainly and
// with the routing and engine probes attached: both must give the
// pinned statistics.
func TestProbesReproducePinnedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 1K-node simulations")
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	w := simWorkloads["ur-low"]
	for _, leg := range []string{legPlain, legTraced} {
		r, err := runLeg(w, deriveSeed(defaultSeed, 0), leg)
		if err != nil {
			t.Fatal(err)
		}
		if want := p["ur-low"]["0"]; r.Digest != want {
			t.Errorf("%s leg digest %s, pinned %s", leg, r.Digest, want)
		}
		if err := r.sane(w); err != nil {
			t.Errorf("%s leg: %v", leg, err)
		}
	}
}

func TestJobStreamIsSeededAndMixed(t *testing.T) {
	gen := func(seed uint64) ([]serveJob, int) {
		s := newJobStream(seed, 0)
		var jobs []serveJob
		resub := 0
		for i := 0; i < 64; i++ {
			j := s.next()
			if j.origin >= 0 {
				resub++
				if string(j.body) != string(jobs[j.origin].body) {
					t.Fatalf("job %d resubmits %d with a different body", i, j.origin)
				}
			}
			jobs = append(jobs, j)
		}
		return jobs, resub
	}
	a, resub := gen(3)
	b, _ := gen(3)
	c, _ := gen(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different jobs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same jobs")
	}
	if resub != 16 {
		t.Errorf("%d of 64 jobs are resubmissions, want a quarter", resub)
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric and workload
// lists the benchmark prints in step with BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	same := func(kind string, json []struct{ Name, Unit string }, code []unitMetric) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(json), len(code))
			return
		}
		for i := range json {
			if json[i].Name != code[i].name || json[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, json[i].Name, json[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestProbesAreSafeUnderShards runs a small machine with the routing
// and engine probes on two engine shards, which call routing from two
// goroutines, and checks it against the plain serial run.
func TestProbesAreSafeUnderShards(t *testing.T) {
	w := simWorkload{p: 2, a: 4, h: 2, traffic: "wc", shards: 0, crossShards: 2,
		rc: sim.RunConfig{Load: 0.3, WarmupCycles: 300, MeasureCycles: 300, DrainCycles: 3000}}
	plain, err := runLeg(w, 5, legPlain)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := runLeg(w, 5, legCross)
	if err != nil {
		t.Fatal(err)
	}
	if cross.Digest != plain.Digest {
		t.Errorf("probed two-shard digest %s, plain serial %s", cross.Digest, plain.Digest)
	}
	if cross.Decide == 0 || cross.NextHop < cross.Decide || cross.Hops == 0 || cross.Ejected < plain.Measured {
		t.Errorf("implausible probe counts: %+v", cross)
	}
}

// TestServeLoopAnswersEveryJob drives a server with both clients for
// three seconds: every job must be answered, match the pins, and the stream's
// resubmissions must come back as byte-identical cache hits.
func TestServeLoopAnswersEveryJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dfly-serve server")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Remove(buildDir) })
	check, err := newChecker("serve-mixed", defaultSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workload: "serve-mixed", seed: defaultSeed, check: check}
	s, _, err := coldStart()
	if err != nil {
		t.Fatal(err)
	}
	outs, _, _ := b.serveLoop(s, 3*time.Second, true)
	s.stop()
	b.verify(outs)
	hits := 0
	for _, list := range outs {
		for _, o := range list {
			if o.cached {
				hits++
			}
		}
	}
	if b.failed != 0 || b.attempted == 0 || check.checked != b.attempted || hits == 0 {
		t.Errorf("%d of %d jobs failed, %d checked against the pins, %d cache hits", b.failed, b.attempted, check.checked, hits)
	}
}
