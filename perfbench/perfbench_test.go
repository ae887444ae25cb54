package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyConfig is a fast pass of one workload at self-test scale.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 0.3, trace: trace,
		workdir: t.TempDir(), nproc: 2, tiny: true, warmup: 10 * time.Millisecond,
	}
}

// runTiny executes cfg in-process and decodes its result line.
func runTiny(t *testing.T, cfg config) result {
	t.Helper()
	var out bytes.Buffer
	if code := execute(cfg, &out); code != 0 {
		t.Fatalf("%s trace=%v: exit code %d", cfg.workload, cfg.trace, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "env {") {
		t.Fatalf("%s: want a stamp line and a result line, got %q", cfg.workload, out.String())
	}
	var stamp map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[0], "env ")), &stamp); err != nil {
		t.Fatalf("%s: stamp: %v", cfg.workload, err)
	}
	for _, k := range []string{"nproc", "gomaxprocs", "team_size", "go", "commit", "seed",
		"host.probe_speedup", "host.cpu_per_wall", "host.triad_gbs"} {
		if _, ok := stamp[k]; !ok {
			t.Errorf("%s: stamp lacks %s", cfg.workload, k)
		}
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: result line: %v", cfg.workload, err)
	}
	return res
}

func names(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestWorkloadsPassAndPrintEveryMetric(t *testing.T) {
	for _, w := range []string{"table1", "tasks", "serving", "gompcc"} {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, tinyConfig(t, w, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := names(endToEnd)
			if trace {
				want = names(perLayer)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, name, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

// A wrong oracle value must show up as failed operations, not as a crash
// or a correct run.
func TestInjectedOracleFaultIsCounted(t *testing.T) {
	for _, w := range []string{"table1", "tasks", "serving", "gompcc"} {
		cfg := tinyConfig(t, w, false)
		cfg.faultOracle = true
		res := runTiny(t, cfg)
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want failures counted", w, res.Correct, res.Attempted, res.Failed)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					c.what, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := 1; v <= 100000; v++ {
		h.add(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 2e-3 {
			t.Errorf("quantile(%v) = %v, want %v within 0.2%%", q, got, want)
		}
	}
}
