package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tinyConfig runs a workload in seconds: small traces, short steps, and
// service rates high enough that twenty jobs arrive in a second.
func tinyConfig(t *testing.T, name string, exp *expected) config {
	return config{
		Workload:     name,
		Seed:         7,
		Seconds:      0.2,
		Work:         t.TempDir(),
		Expected:     exp,
		Scale:        0.02,
		ServiceScale: 0.002,
		Parallel:     2,
		LowQPS:       20,
		HighQPS:      40,
	}
}

// resultLine prints an outcome and decodes its last line.
func resultLine(t *testing.T, out *outcome, cfg config) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := out.print(&buf, cfg); err != nil {
		t.Fatalf("%s: print: %v", cfg.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", cfg.Workload, err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("%s: result keys %v, want correct, attempted, failed, metrics", cfg.Workload, keys)
	}
	return line
}

// TestWorkloads runs every workload at a tiny scale: first freezing the
// expected results, then checking a second run against them, then the
// traced run. Every metric of the mode's catalogue must be emitted,
// finite and with its unit, every output must match, and the exact
// counts must repeat.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	exp := &expected{}
	names := []string{"suite", "sweep", "service"}
	frozen := map[string]map[string]uint64{}
	for _, name := range names {
		cfg := tinyConfig(t, name, exp)
		cfg.Freeze = true
		out, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s (freeze): %v", name, err)
		}
		frozen[name] = out.counts
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, name, exp)
			cfg.Trace = traced
			out, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			resultLine(t, out, cfg)
			if out.failed != 0 {
				t.Errorf("%s (trace %v): %d of %d checks failed: %v", name, traced, out.failed, out.attempted, out.failures)
			}
			if traced {
				if _, ok := out.metrics["core.residue_pct"]; !ok {
					t.Errorf("%s: traced run has no core.residue_pct", name)
				}
				continue
			}
			if !reflect.DeepEqual(out.counts, frozen[name]) {
				t.Errorf("%s: exact counts changed between runs:\n got  %v\n want %v", name, out.counts, frozen[name])
			}
		}
	}
}

// TestMismatchFails holds the output check to its purpose: a run against
// a corrupted expectation fails and says so.
func TestMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep workload")
	}
	exp := &expected{}
	cfg := tinyConfig(t, "sweep", exp)
	cfg.Freeze = true
	if _, err := execute(cfg); err != nil {
		t.Fatal(err)
	}
	for k, c := range exp.Sweep {
		c.Misses++
		exp.Sweep[k] = c
		break
	}
	cfg.Freeze = false
	out, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Fatal("a corrupted expected count went unnoticed")
	}
	var line struct{ Correct bool }
	raw := resultLine(t, out, cfg)
	if err := json.Unmarshal(raw["correct"], &line.Correct); err != nil || line.Correct {
		t.Fatalf("result says correct=%s after a mismatch", raw["correct"])
	}
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json and the program
// to the same metric names and units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
	}
	if want := []string{"sweep", "service"}; !reflect.DeepEqual(workloads, want) {
		t.Errorf("workloads %v, want %v", workloads, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.95); v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	if v, beyond := percentile(xs[:199], 0.95); v != 190 || beyond != 9 {
		t.Errorf("p95 of 1..199 = %v with %d beyond, want 190 with 9", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
