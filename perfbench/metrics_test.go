package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesHarness holds BENCHMARK.json to the workloads
// the harness runs and the names, units, directions and bounds it
// reports.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the harness does not run", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{10, 20}, 0.9, 19},
		{[]float64{5}, 0.99, 5},
	} {
		if got := quantile(append([]float64(nil), c.xs...), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if n := beyond(xs, 0.9); n != 10 {
		t.Errorf("beyond(0..99, p90) = %d, want 10", n)
	}
}

func TestPlaySeedsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for c := 0; c < 2*clients*(setupReps+1); c++ {
		for j := 0; j < 5000; j++ {
			s := playSeed(1, c, j)
			if seen[s] {
				t.Fatalf("playSeed(1, %d, %d) repeats", c, j)
			}
			seen[s] = true
		}
	}
	if playSeed(1, 0, 0) == playSeed(2, 0, 0) {
		t.Error("workload seeds 1 and 2 give the same first play")
	}
}
