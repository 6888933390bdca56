package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dragonfly/internal/obs"
)

// TestMain lets the test binary stand in for dfly-sim: with
// DFLY_SIM_RUN_MAIN=1 in its environment it runs main on its arguments
// instead of the tests, so runCLI can drive the real flag parsing and
// exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("DFLY_SIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs dfly-sim with args and returns its stdout, stderr and
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DFLY_SIM_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("running dfly-sim: %v", err)
	}
	return out.String(), errb.String(), code
}

// wcReport is the JSON report the removed -pattern WC flag produced for
// the arguments TestTrafficWCReproducesPatternWC passes.
const wcReport = `{
  "schema_version": 1,
  "kind": "run",
  "topology": "dragonfly(p=2 a=4 h=2 g=9 N=72 k=7 k'=16)",
  "algorithm": "UGAL-L",
  "pattern": "WC",
  "seed": 1,
  "points": [
    {
      "load": 0.2,
      "result": {
        "offered": 0.2,
        "accepted": 0.19689814814814816,
        "latency_mean": 5.921015514809584,
        "latency_min": 2,
        "latency_max": 14,
        "latency_count": 4254,
        "min_latency_mean": 5.728979591836729,
        "nonmin_latency_mean": 6.181818181818179,
        "minimal_fraction": 0.5759285378467325,
        "saturated": false,
        "cycles": 608,
        "drain_timeout": false,
        "alive_terminals": 72
      }
    }
  ]
}
`

// TestTrafficWCReproducesPatternWC pins -traffic WC to the report the
// old -pattern WC spelling produced, byte for byte.
func TestTrafficWCReproducesPatternWC(t *testing.T) {
	out, stderr, code := runCLI(t, "-alg", "UGAL-L", "-traffic", "WC", "-p", "2", "-a", "4", "-h", "2",
		"-warmup", "300", "-measure", "300", "-load", "0.2", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if out != wcReport {
		t.Errorf("-traffic WC report:\n%s\nwant the -pattern WC report:\n%s", out, wcReport)
	}
}

// faultReport is the JSON report of a -fail-global 0.1 -fail-routers 3
// run, recorded when the flags built a static fault plan. The flags now
// compile to cycle-0 timeline events; the report must not move.
const faultReport = `{
  "schema_version": 1,
  "kind": "run",
  "topology": "dragonfly(p=2 a=4 h=2 g=9 N=72 k=7 k'=16)",
  "algorithm": "UGAL-L",
  "pattern": "ur",
  "seed": 1,
  "points": [
    {
      "load": 0.2,
      "result": {
        "offered": 0.2,
        "accepted": 0.19223809523809524,
        "latency_mean": 4.341263940520443,
        "latency_min": 0,
        "latency_max": 13,
        "latency_count": 4035,
        "min_latency_mean": 3.4239392894101455,
        "nonmin_latency_mean": 6.682218309859159,
        "minimal_fraction": 0.7184634448574969,
        "saturated": false,
        "cycles": 608,
        "drain_timeout": false,
        "dropped": 240,
        "alive_terminals": 70
      }
    }
  ]
}
`

// TestStandingFaultFlagsReport pins the -fail-global/-fail-routers →
// cycle-0 event translation and its draw order: routers first, then the
// global-channel fraction, from the -fail-seed chain.
func TestStandingFaultFlagsReport(t *testing.T) {
	out, stderr, code := runCLI(t, "-alg", "UGAL-L", "-p", "2", "-a", "4", "-h", "2",
		"-warmup", "300", "-measure", "300", "-load", "0.2",
		"-fail-global", "0.1", "-fail-routers", "3", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if out != faultReport {
		t.Errorf("fault-flag report:\n%s\nwant the recorded report:\n%s", out, faultReport)
	}
	const info = "fault plan (seed 1): 1 routers, 5 global, 3 local, 2 terminal channels down; connected=true, 70/72 terminals alive\n"
	if stderr != info {
		t.Errorf("stderr %q, want %q", stderr, info)
	}
}

// TestFailGlobalRejectsBadValues: non-finite and negative -fail-global
// values, and counts beyond the live global channels, exit 1 before any
// simulation runs instead of silently running with no faults.
func TestFailGlobalRejectsBadValues(t *testing.T) {
	for _, c := range []struct{ val, want string }{
		{"NaN", "-fail-global NaN: want a fraction in [0,1) or a count >= 1"},
		{"Inf", "-fail-global +Inf: want a fraction in [0,1) or a count >= 1"},
		{"-Inf", "-fail-global -Inf: want a fraction in [0,1) or a count >= 1"},
		{"-0.5", "-fail-global -0.5: want a fraction in [0,1) or a count >= 1"},
		{"50", "-fail-global 50: only 36 live global channels to fail"},
		{"1e30", "only 36 live global channels to fail"},
	} {
		out, stderr, code := runCLI(t, "-p", "2", "-a", "4", "-h", "2", "-warmup", "10", "-measure", "10",
			"-fail-global", c.val)
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("-fail-global %s: exit %d, stderr %q; want exit 1 with %q", c.val, code, stderr, c.want)
		}
		if out != "" {
			t.Errorf("-fail-global %s: ran anyway, stdout %q", c.val, out)
		}
	}
}

// TestPatternFlagRemoved checks -pattern is gone: the flag parser
// rejects it as undefined.
func TestPatternFlagRemoved(t *testing.T) {
	_, stderr, code := runCLI(t, "-pattern", "WC", "-p", "2", "-a", "4", "-h", "2")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -pattern") {
		t.Errorf("-pattern: exit %d, stderr %q; want exit 2 for an undefined flag", code, stderr)
	}
}

// brokenWriter fails after accepting n bytes, like a pipe whose reader
// went away mid-document.
type brokenWriter struct {
	n   int
	err error
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteReportPropagatesWriteErrors(t *testing.T) {
	rep := obs.NewReport("run")
	rep.Topology = "test"
	rep.Points = []obs.Point{{Load: 0.3}}

	sentinel := errors.New("broken pipe")
	err := writeReport(rep, &brokenWriter{n: 10, err: sentinel})
	if err == nil {
		t.Fatal("writeReport on a failing writer returned nil; a closed pipe would exit 0")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("writeReport error %v does not wrap the writer's error", err)
	}
	if !strings.Contains(err.Error(), "JSON report") {
		t.Errorf("writeReport error %q lacks report context", err)
	}
}

func TestWriteReportSucceeds(t *testing.T) {
	rep := obs.NewReport("run")
	var sb strings.Builder
	if err := writeReport(rep, &sb); err != nil {
		t.Fatalf("writeReport: %v", err)
	}
	if !strings.Contains(sb.String(), "schema_version") {
		t.Errorf("report output missing schema_version: %q", sb.String())
	}
}

func TestParseSweep(t *testing.T) {
	loads, err := parseSweep("0.1:0.3:0.1")
	if err != nil {
		t.Fatalf("parseSweep: %v", err)
	}
	want := []float64{0.1, 0.2, 0.3}
	if len(loads) != len(want) {
		t.Fatalf("parseSweep = %v, want %v", loads, want)
	}
	for i := range want {
		if loads[i] != want[i] {
			t.Errorf("loads[%d] = %g, want %g", i, loads[i], want[i])
		}
	}
	if _, err := parseSweep("0.5:0.1:0.1"); err == nil {
		t.Error("parseSweep accepted an empty range")
	}
}
