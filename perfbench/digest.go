package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// defaultSeed is the workload seed whose job digests are pinned in
// pins.json. Other seeds are checked by invariants and by the traced
// run's bit-for-bit reproduction instead.
const defaultSeed = 1

// simDigest hashes the simulated statistics of one run: accepted rate,
// the three latency accumulators, cycles, dropped packets, drain
// timeout and minimal fraction. Host timings never enter it, so equal
// digests mean bit-identical simulation results.
func simDigest(res sim.Result) string {
	h := fnv.New64a()
	var b []byte
	f := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	i := func(x int64) { b = binary.LittleEndian.AppendUint64(b, uint64(x)) }
	acc := func(a stats.Accumulator) {
		i(a.Count())
		f(a.Mean())
		f(a.Min())
		f(a.Max())
		f(a.Variance())
	}
	f(res.Offered)
	f(res.Accepted)
	acc(res.Latency)
	acc(res.MinLatency)
	acc(res.NonminLatency)
	f(res.MinimalFraction)
	i(res.Cycles)
	i(res.Dropped)
	if res.DrainTimeout {
		i(1)
	} else {
		i(0)
	}
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// reportDigest hashes the simulated content of a dfly-serve report: its
// points and windows, re-encoded compactly. Other report fields (run
// identity, and any host-dependent section a later schema adds) are
// deliberately left out.
func reportDigest(report []byte) (string, error) {
	var r struct {
		Points  json.RawMessage `json:"points"`
		Windows json.RawMessage `json:"windows"`
	}
	if err := json.Unmarshal(report, &r); err != nil {
		return "", fmt.Errorf("decode report: %w", err)
	}
	if len(r.Points) == 0 {
		return "", fmt.Errorf("report has no points")
	}
	var pts, wins any
	if err := json.Unmarshal(r.Points, &pts); err != nil {
		return "", fmt.Errorf("decode points: %w", err)
	}
	if len(r.Windows) > 0 {
		if err := json.Unmarshal(r.Windows, &wins); err != nil {
			return "", fmt.Errorf("decode windows: %w", err)
		}
	}
	canon, err := json.Marshal([]any{pts, wins})
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(canon)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// pinsFile maps workload name → job key → digest for defaultSeed.
//
//go:embed pins.json
var pinsFile []byte

type pinTable map[string]map[string]string

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsFile, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// checker compares job digests against the pins. With record set it
// collects digests instead, for writing a new pins.json.
type checker struct {
	workload string
	pins     map[string]string
	active   bool // seed == defaultSeed
	record   map[string]string
	checked  int
}

func newChecker(workload string, seed uint64, record bool) (*checker, error) {
	c := &checker{workload: workload, active: seed == defaultSeed}
	if record {
		c.record = map[string]string{}
		return c, nil
	}
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	c.pins = p[workload]
	return c, nil
}

// check reports whether digest is acceptable for job key: it must equal
// the pinned digest when the seed is pinned and the key is covered.
func (c *checker) check(key, digest string) error {
	if !c.active {
		return nil
	}
	if c.record != nil {
		c.record[key] = digest
		return nil
	}
	want, ok := c.pins[key]
	if !ok {
		return nil
	}
	c.checked++
	if want != digest {
		return fmt.Errorf("job %s: digest %s, pinned %s", key, digest, want)
	}
	return nil
}

// writePins merges the recorded digests into the pins file at path.
func (c *checker) writePins(path string) error {
	p := pinTable{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &p); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if p[c.workload] == nil {
		p[c.workload] = map[string]string{}
	}
	for k, v := range c.record {
		p[c.workload][k] = v
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
