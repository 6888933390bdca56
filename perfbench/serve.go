package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"dragonfly/internal/parallel"
	"dragonfly/internal/serve"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// The serve-mixed thread budget: two workers on a two-slot simulation
// pool, driven by two closed-loop client connections.
const (
	serveWorkers = 2
	serveClients = 2
	// serveCheckpointEvery is short enough that the 1K-node jobs of the
	// mix (2000+ cycles) checkpoint several times.
	serveCheckpointEvery = 500
	// serveColdStarts is how many times set-up is repeated for setup_s.
	serveColdStarts = 5
)

// serveJob is one submission of a client's seeded stream.
type serveJob struct {
	key  string // "client/index", the pin key
	body []byte
	// origin is the index of the job this one resubmits verbatim, -1 for
	// a new job.
	origin int
}

// jobStream generates a client's submissions. The mix is the same for
// every seed: a fixed pattern of job kinds per 16 submissions (4 exact
// resubmissions, which are cache hits; one 1K-node run; one sweep; two
// windowed runs; eight plain 72-node runs), with the plain runs cycling
// through the same algorithms, patterns and loads. The seed draws only
// the machine seeds, which make every job distinct, and which earlier
// job each resubmission repeats. The second client's pattern is shifted
// by half a period, so the two clients' 1K-node runs rarely overlap.
type jobStream struct {
	client int
	rng    *rand.Rand
	fresh  []int // indices of new (non-resubmitted) jobs so far
	plain  int   // plain runs so far
	bodies [][]byte
}

func newJobStream(seed uint64, client int) *jobStream {
	return &jobStream{client: client, rng: rand.New(rand.NewPCG(seed, uint64(client)+0x5eed))}
}

var small = map[string]int{"p": 2, "a": 4, "h": 2}

// plainMix are the (algorithm, pattern) pairs of plain small runs, all
// far from saturation at the loads they run at.
var plainMix = [][2]string{
	{"MIN", "UR"}, {"VAL", "UR"}, {"UGAL-L", "UR"}, {"UGAL-L_VCH", "UR"},
	{"UGAL-L", "WC"}, {"VAL", "WC"},
}

func (s *jobStream) next() serveJob {
	k := len(s.bodies)
	job := serveJob{key: fmt.Sprintf("%d/%d", s.client, k), origin: -1}
	r := s.rng
	sub := map[string]any{"seed": r.Uint64N(1<<31) + 1}
	switch slot := (k + 8*s.client) % 16; slot {
	case 3, 7, 11, 15:
		recent := s.fresh[max(0, len(s.fresh)-8):]
		job.origin = recent[r.IntN(len(recent))]
		job.body = s.bodies[job.origin]
		s.bodies = append(s.bodies, job.body)
		return job
	case 8:
		sub["kind"] = "run"
		sub["topology"] = map[string]int{}
		sub["algorithm"] = "UGAL-L_VCH"
		sub["pattern"] = "UR"
		sub["load"] = 0.1
		sub["run"] = map[string]int{"warmup": 1000, "measure": 1000, "drain": 10000}
	case 12:
		sub["kind"] = "sweep"
		sub["topology"] = small
		sub["algorithm"] = "UGAL-L"
		sub["pattern"] = "UR"
		sub["loads"] = []float64{0.1, 0.2, 0.3}
		sub["run"] = map[string]int{"warmup": 500, "measure": 500, "drain": 5000}
	default:
		ap := plainMix[s.plain%len(plainMix)]
		sub["kind"] = "run"
		sub["topology"] = small
		sub["algorithm"] = ap[0]
		sub["pattern"] = ap[1]
		sub["load"] = 0.1 + 0.05*float64(s.plain/len(plainMix)%4)
		sub["run"] = map[string]int{"warmup": 1000, "measure": 1000, "drain": 10000}
		if slot == 1 || slot == 9 {
			sub["window"] = 200
		}
		s.plain++
	}
	body, err := json.Marshal(sub)
	if err != nil {
		panic(err) // only maps of plain values: cannot fail
	}
	job.body = body
	s.fresh = append(s.fresh, k)
	s.bodies = append(s.bodies, body)
	return job
}

// warmupBody is job i of the fixed batch every cold start answers
// before it counts as set up. Its seeds lie outside the mix's range.
func warmupBody(i int) []byte {
	b, _ := json.Marshal(map[string]any{
		"kind": "run", "topology": small, "algorithm": "UGAL-L_VCH", "pattern": "UR",
		"load": 0.2, "seed": uint64(1)<<40 + uint64(i),
		"run": map[string]int{"warmup": 1000, "measure": 1000, "drain": 10000},
	})
	return b
}

// server is a dfly-serve instance on a loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	dir  string
	done chan struct{}
}

func startServer() (*server, time.Duration, error) {
	dir, err := os.MkdirTemp(buildDir, "serve-data-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := serve.Open(serve.Config{
		Workers:         serveWorkers,
		Pool:            parallel.New(serveWorkers),
		DataDir:         dir,
		CheckpointEvery: serveCheckpointEvery,
		Logf:            log.New(os.Stderr, "serve: ", 0).Printf,
	})
	open := time.Since(t0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv}, url: "http://" + l.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: listener: %v", err)
		}
	}()
	return s, open, nil
}

// stop shuts the listener and the server down, waits for both and
// removes the data directory.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Every job has been answered by now, so a shutdown error (the
	// deadline passing) cannot change a measured result.
	_ = s.http.Shutdown(ctx)
	<-s.done
	_ = s.srv.Shutdown(ctx)
	os.RemoveAll(s.dir)
}

// client is one closed-loop connection to a server.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{
		Timeout:   90 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// outcome is one job's round trip as the client saw it.
type outcome struct {
	job                    serveJob
	cached                 bool
	report                 []byte
	latency, submit, fetch time.Duration
	queueWaitMS, runMS     float64
	stamped                bool
}

// do submits body, waits on the job's event feed until it is terminal
// and fetches its report. With stamps it also reads the job's status for
// the server's submitted/started/finished stamps.
func (c *client) do(job serveJob, stamps bool) (outcome, error) {
	o := outcome{job: job}
	t0 := time.Now()
	resp, err := c.http.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(job.body))
	if err != nil {
		return o, err
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return o, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	o.submit, o.cached = time.Since(t0), st.Cached
	if st.State != serve.StateDone {
		resp, err := c.http.Get(c.url + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			return o, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return o, fmt.Errorf("events: %w", err)
		}
	}
	t1 := time.Now()
	resp, err = c.http.Get(c.url + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		return o, err
	}
	o.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return o, fmt.Errorf("report: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return o, fmt.Errorf("report: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(o.report))
	}
	o.fetch, o.latency = time.Since(t1), time.Since(t0)
	if stamps && !o.cached {
		if err := c.getJSON("/v1/jobs/"+st.ID, &st); err != nil {
			return o, err
		}
		o.queueWaitMS = float64(st.StartedAt - st.SubmittedAt)
		o.runMS = float64(st.FinishedAt - st.StartedAt)
		o.stamped = true
	}
	return o, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// coldStart opens a server and answers the fixed warm-up batch. It
// returns the server and how long serve.Open took.
func coldStart() (*server, time.Duration, error) {
	s, open, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(s.url)
			defer cl.close()
			for i := c; i < 4; i += serveClients {
				if _, err := cl.do(serveJob{key: "warmup", body: warmupBody(i), origin: -1}, false); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, open, nil
}

// serveLoop runs the closed loop of both clients against s for d and
// returns every outcome in submission order per client, and the loop's
// wall and process CPU time. Failed jobs are reported through b.fail.
func (b *bench) serveLoop(s *server, d time.Duration, stamps bool) ([][]outcome, time.Duration, time.Duration) {
	outs := make([][]outcome, serveClients)
	fails := make([][]string, serveClients)
	start, c0 := time.Now(), cpuNS()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(s.url)
			defer cl.close()
			stream := newJobStream(b.seed, c)
			for time.Now().Before(deadline) {
				job := stream.next()
				o, err := cl.do(job, stamps)
				if err != nil {
					fails[c] = append(fails[c], fmt.Sprintf("job %s: %v", job.key, err))
					o.report = nil
				}
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall, cpu := time.Since(start), time.Duration(cpuNS()-c0)
	for _, f := range fails {
		for _, msg := range f {
			b.fail("%s", msg)
		}
	}
	return outs, wall, cpu
}

// verify checks every outcome of one loop: the report's simulated
// content against the pins (default seed), each cache hit byte for byte
// against the first answer to the same submission, and every report
// against the invariants. It returns the digest of each job by key.
func (b *bench) verify(outs [][]outcome) map[string]string {
	digests := map[string]string{}
	for _, list := range outs {
		for _, o := range list {
			b.attempted++
			if o.report == nil {
				continue // already failed
			}
			d, err := b.verifyOne(o, list)
			if err != nil {
				b.fail("job %s: %v", o.job.key, err)
				continue
			}
			digests[o.job.key] = d
		}
	}
	return digests
}

// verifyOne checks one answered job of list and returns its digest.
func (b *bench) verifyOne(o outcome, list []outcome) (string, error) {
	d, err := reportDigest(o.report)
	if err != nil {
		return "", err
	}
	if err := b.check.check(o.job.key, d); err != nil {
		return "", err
	}
	points, err := reportPoints(o.report)
	if err != nil {
		return "", err
	}
	for _, r := range points {
		if r.Count == 0 || r.Dropped != 0 || r.Timeout || r.Accepted < 0.8*r.Offered || r.Accepted > 1.2*r.Offered {
			return "", fmt.Errorf("implausible point: offered %.3f accepted %.3f measured %d dropped %d drain timeout %t",
				r.Offered, r.Accepted, r.Count, r.Dropped, r.Timeout)
		}
	}
	if o.job.origin >= 0 && o.cached {
		first := list[o.job.origin]
		if first.report != nil && !bytes.Equal(first.report, o.report) {
			return "", fmt.Errorf("cache hit differs from the first answer to job %s", first.job.key)
		}
	}
	return d, nil
}

// pointResult is the part of a report point's result the benchmark
// reads.
type pointResult struct {
	Offered  float64 `json:"offered"`
	Accepted float64 `json:"accepted"`
	Mean     float64 `json:"latency_mean"`
	Count    int64   `json:"latency_count"`
	Minimal  float64 `json:"minimal_fraction"`
	Cycles   int64   `json:"cycles"`
	Dropped  int64   `json:"dropped"`
	Timeout  bool    `json:"drain_timeout"`
}

// reportPoints decodes the results of a dfly-serve report's points.
func reportPoints(report []byte) ([]pointResult, error) {
	var rep struct {
		Points []struct {
			Result pointResult `json:"result"`
		} `json:"points"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	out := make([]pointResult, len(rep.Points))
	for i, p := range rep.Points {
		out[i] = p.Result
	}
	return out, nil
}

// cycles sums the simulated cycles of the reports the server computed
// (cache hits simulate nothing).
func cycles(outs [][]outcome) float64 {
	total := 0.0
	for _, list := range outs {
		for _, o := range list {
			if o.cached || o.report == nil {
				continue
			}
			points, _ := reportPoints(o.report) // verify reported any that do not decode
			for _, r := range points {
				total += float64(r.Cycles)
			}
		}
	}
	return total
}

func latenciesMS(outs [][]outcome) []float64 {
	var xs []float64
	for _, list := range outs {
		for _, o := range list {
			if o.report != nil {
				xs = append(xs, float64(o.latency)/1e6)
			}
		}
	}
	return xs
}

// runServe measures serve-mixed: set-up is repeated cold starts; with
// trace off one server runs the closed loop for the whole run, with
// trace on an untraced and a traced loop share it on fresh servers.
func (b *bench) runServe() error {
	var setups, opens []float64
	var s *server
	for i := 0; i < serveColdStarts; i++ {
		if s != nil {
			s.stop()
		}
		c0 := cpuNS()
		cs, open, err := coldStart()
		if err != nil {
			return err
		}
		setups = append(setups, float64(cpuNS()-c0)/1e9)
		opens = append(opens, float64(open)/1e6)
		s = cs
	}
	if !b.trace {
		outs, wall, cpu := b.serveLoop(s, b.duration, false)
		s.stop()
		b.verify(outs)
		lat := latenciesMS(outs)
		b.res.add("sim_cycles_per_cpu_s", cycles(outs)/cpu.Seconds(), "cycles/cpu-s", len(lat))
		b.res.add("cpu_ms_per_job", float64(cpu)/1e6/float64(len(lat)), "ms", len(lat))
		b.res.add("setup_s", stats.Median(setups), "s", len(setups))
		b.res.add("peak_rss_mb", selfMaxRSSMiB(), "MiB", 1)
		b.res.extras = append(b.res.extras,
			metric{Name: "sim_cycles_per_s", Value: cycles(outs) / wall.Seconds(), Unit: "cycles/s", Samples: len(lat)},
			metric{Name: "jobs_per_s", Value: float64(len(lat)) / wall.Seconds(), Unit: "jobs/s", Samples: len(lat)})
		b.res.extra("job_latency_p50_ms", lat, 0.5, "ms")
		b.res.extra("job_latency_p90_ms", lat, 0.9, "ms")
		return nil
	}

	plainOuts, _, plainCPU := b.serveLoop(s, b.duration/2, false)
	s.stop()
	plain := b.verify(plainOuts)
	s, _, err := coldStart()
	if err != nil {
		return err
	}
	var before, after serve.Stats
	cl := newClient(s.url)
	defer cl.close()
	if err := cl.getJSON("/v1/stats", &before); err != nil {
		s.stop()
		return err
	}
	outs, _, cpu := b.serveLoop(s, b.duration/2, true)
	err = cl.getJSON("/v1/stats", &after)
	s.stop()
	if err != nil {
		return err
	}
	traced := b.verify(outs)
	for key, d := range traced {
		if p, ok := plain[key]; ok && p != d {
			b.fail("job %s: traced report digest %s differs from untraced %s", key, d, p)
		}
	}

	b.serveLayers(opens, outs, before, after)
	perJob := func(cpu time.Duration, outs [][]outcome) float64 {
		return float64(cpu) / float64(len(latenciesMS(outs)))
	}
	b.res.add("trace.overhead_frac", perJob(cpu, outs)/perJob(plainCPU, plainOuts)-1, "fraction", len(latenciesMS(outs)))
	return b.mixProbe(outs)
}

// serveLayers reports the service's per-layer metrics from traced
// round trips and the /v1/stats counters around them.
func (b *bench) serveLayers(opens []float64, outs [][]outcome, before, after serve.Stats) {
	var submit, queue, run, fetch, kib []float64
	for _, list := range outs {
		for _, o := range list {
			if o.report == nil {
				continue
			}
			submit = append(submit, float64(o.submit)/1e6)
			fetch = append(fetch, float64(o.fetch)/1e6)
			kib = append(kib, float64(len(o.report))/1024)
			if o.stamped {
				queue = append(queue, o.queueWaitMS)
				run = append(run, o.runMS)
			}
		}
	}
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	b.res.addPercentile("serve.open_ms", opens, 0.5, "ms")
	b.res.addPercentile("serve.submit_ms_p50", submit, 0.5, "ms")
	b.res.addPercentile("serve.queue_wait_ms_p50", queue, 0.5, "ms")
	b.res.addPercentile("serve.run_ms_p50", run, 0.5, "ms")
	b.res.addPercentile("serve.report_fetch_ms_p50", fetch, 0.5, "ms")
	b.res.addPercentile("serve.report_kib_p50", kib, 0.5, "KiB")
	b.res.add("serve.cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "fraction", int(hits+misses))
	b.res.add("serve.rejected_429", float64(after.Rejected-before.Rejected), "count", 0)
}

// submission is the dfly-serve job body of a simulation workload's job
// whose machine is seeded with sysSeed.
func (w simWorkload) submission(sysSeed uint64) []byte {
	b, _ := json.Marshal(map[string]any{
		"kind": "run", "topology": map[string]int{"p": w.p, "a": w.a, "h": w.h},
		"algorithm": string(alg), "traffic": w.traffic, "load": w.rc.Load,
		"seed": sysSeed, "shards": w.shards,
		"run": map[string]int{"warmup": w.rc.WarmupCycles, "measure": w.rc.MeasureCycles, "drain": w.rc.DrainCycles},
	})
	return b
}

// matchReport checks that a dfly-serve report carries exactly the
// statistics of the direct run l of the same job.
func matchReport(l legResult, report []byte) error {
	points, err := reportPoints(report)
	if err != nil {
		return err
	}
	if len(points) != 1 {
		return fmt.Errorf("report has %d points, want 1", len(points))
	}
	r := points[0]
	if r.Accepted != l.Accepted || r.Mean != l.LatencyMean || r.Count != l.Measured || r.Minimal != l.Minimal || r.Cycles != l.Cycles {
		return fmt.Errorf("service reports accepted %v, latency %v over %d, minimal %v, %d cycles; the direct run gave %v, %v over %d, %v, %d",
			r.Accepted, r.Mean, r.Count, r.Minimal, r.Cycles, l.Accepted, l.LatencyMean, l.Measured, l.Minimal, l.Cycles)
	}
	return nil
}

// serviceProbe runs job r of a simulation workload through dfly-serve
// and then resubmits it: the report must carry the statistics the direct
// run measured, and the resubmission must be a byte-identical cache hit.
func (b *bench) serviceProbe(w simWorkload, r jobRun) error {
	s, open, err := startServer()
	if err != nil {
		return err
	}
	defer s.stop()
	cl := newClient(s.url)
	defer cl.close()
	var before, after serve.Stats
	if err := cl.getJSON("/v1/stats", &before); err != nil {
		return err
	}
	job := serveJob{key: "probe", body: w.submission(deriveSeed(b.seed, r.job)), origin: -1}
	var outs []outcome
	for i := 0; i < 2; i++ {
		b.attempted++
		o, err := cl.do(job, true)
		if err == nil {
			err = matchReport(r.plain, o.report)
		}
		if err == nil && i == 1 && (len(outs) == 0 || !o.cached || !bytes.Equal(o.report, outs[0].report)) {
			err = errors.New("the resubmission was not a byte-identical cache hit")
		}
		if err != nil {
			b.fail("job %d through dfly-serve: %v", r.job, err)
			continue
		}
		outs = append(outs, o)
	}
	if err := cl.getJSON("/v1/stats", &after); err != nil {
		return err
	}
	b.serveLayers([]float64{float64(open) / 1e6}, [][]outcome{outs}, before, after)
	return nil
}

// mixProbe measures the engine layers on serve-mixed: the first 1K-node
// job of client 0's stream runs directly, plain, probed and cross-shard,
// and must match the report the service gave for it.
func (b *bench) mixProbe(outs [][]outcome) error {
	stream := newJobStream(b.seed, 0)
	var job serveJob
	for k := 0; k <= 8; k++ {
		job = stream.next() // slot 8 is the 1K-node run
	}
	var sub struct {
		Seed    uint64
		Load    float64
		Pattern string
		Run     struct{ Warmup, Measure, Drain int }
	}
	if err := json.Unmarshal(job.body, &sub); err != nil {
		return err
	}
	w := simWorkload{p: 4, a: 8, h: 4, traffic: strings.ToLower(sub.Pattern), shards: 0, crossShards: 2,
		rc: sim.RunConfig{Load: sub.Load, WarmupCycles: sub.Run.Warmup, MeasureCycles: sub.Run.Measure, DrainCycles: sub.Run.Drain}}
	var r jobRun
	var err error
	for _, leg := range []string{legPlain, legTraced} {
		b.attempted++
		l, lerr := runLeg(w, sub.Seed, leg)
		if lerr == nil {
			lerr = l.sane(w)
		}
		if lerr != nil {
			b.fail("job %s run directly (%s): %v", job.key, leg, lerr)
			return nil
		}
		if leg == legPlain {
			r.plain = l
		} else {
			r.traced = l
		}
	}
	if r.traced.Digest != r.plain.Digest {
		b.fail("job %s: probed digest %s differs from plain %s", job.key, r.traced.Digest, r.plain.Digest)
	}
	if len(outs[0]) > 8 && outs[0][8].report != nil {
		if err = matchReport(r.plain, outs[0][8].report); err != nil {
			b.fail("job %s: %v", job.key, err)
		}
	}
	x, err := runLeg(w, sub.Seed, legCross)
	b.attempted++
	if err == nil && x.Digest != r.plain.Digest {
		err = fmt.Errorf("digest at %d shards %s differs from %s serially", w.crossShards, x.Digest, r.plain.Digest)
	}
	if err != nil {
		b.fail("job %s cross-shard: %v", job.key, err)
	}
	b.simLayers([]jobRun{r}, x)
	return nil
}
