package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"faultexp/internal/sweep"
)

func TestWorkloadSpecsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		if w.Name == "fleet" {
			continue
		}
		a, ok := inprocSpecs(w.Name, 7, 4)
		if !ok || len(a) != 4 {
			t.Fatalf("%s: got %d specs, want 4", w.Name, len(a))
		}
		b, _ := inprocSpecs(w.Name, 7, 4)
		c, _ := inprocSpecs(w.Name, 8, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different spec lists", w.Name)
		}
		seen := map[string]bool{}
		for _, s := range append(a, c...) {
			if seen[string(s)] {
				t.Errorf("%s: a spec repeats across jobs or seeds 7 and 8", w.Name)
			}
			seen[string(s)] = true
			if _, err := sweep.Load(bytes.NewReader(s)); err != nil {
				t.Errorf("%s: generated spec does not load: %v", w.Name, err)
			}
		}
	}
}

func TestFleetStreamDeterministicPerSeed(t *testing.T) {
	w1, j1 := fleetStream(7, 40)
	w2, j2 := fleetStream(7, 40)
	_, j3 := fleetStream(8, 40)
	specs := func(js []fleetJob) (out []string) {
		for _, j := range js {
			out = append(out, string(j.spec))
		}
		return out
	}
	if !reflect.DeepEqual(specs(w1), specs(w2)) || !reflect.DeepEqual(specs(j1), specs(j2)) {
		t.Fatal("seed 7 gave two different job streams")
	}
	if reflect.DeepEqual(specs(j1), specs(j3)) {
		t.Fatal("seeds 7 and 8 gave the same job stream")
	}
	// A longer stream starts with the shorter one: runs that complete
	// different numbers of jobs still agree on the jobs they share.
	_, long := fleetStream(7, 80)
	if !reflect.DeepEqual(specs(j1), specs(long[:40])) {
		t.Fatal("the stream's prefix depends on its length")
	}
}

// TestFleetStreamRefinesEarlierCurves checks the designed cache share:
// every timed job repeats exactly fleetOldRates rates of jobs at least
// fleetLag group positions back (or the warm-up) and adds fleetNewRates
// rates never used before.
func TestFleetStreamRefinesEarlierCurves(t *testing.T) {
	warm, jobs := fleetStream(3, 60)
	history := make([][][]float64, len(fleetGroups))
	used := map[float64]bool{}
	load := func(j fleetJob) *sweep.Spec {
		s, err := sweep.Load(bytes.NewReader(j.spec))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for g, j := range warm {
		s := load(j)
		history[g] = append(history[g], s.Rates)
		for _, r := range s.Rates {
			used[r] = true
		}
	}
	for i, j := range jobs {
		s := load(j)
		g := i % len(fleetGroups)
		eligible := map[float64]bool{}
		for _, rates := range history[g][:max(1, len(history[g])-fleetLag+1)] {
			for _, r := range rates {
				eligible[r] = true
			}
		}
		old, fresh := 0, 0
		for _, r := range s.Rates {
			switch {
			case eligible[r]:
				old++
			case !used[r]:
				fresh++
			}
		}
		if old != fleetOldRates || fresh != fleetNewRates {
			t.Fatalf("job %d: %d repeated and %d new rates, want %d and %d", i, old, fresh, fleetOldRates, fleetNewRates)
		}
		if j.designedHits*2 != j.cells {
			t.Fatalf("job %d: designed hits %d of %d cells, want half", i, j.designedHits, j.cells)
		}
		for _, r := range s.Rates {
			used[r] = true
		}
		history[g] = append(history[g], s.Rates)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: the helper must sort
		}
		return out
	}
	if v, ok := tailPercentile(xs(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tailPercentile(xs(99), 0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must not be reported")
	}
	if _, ok := tailPercentile(xs(19), 0.5); ok {
		t.Error("p50 of 19 samples has 9 beyond it and must not be reported")
	}
	if v, ok := tailPercentile(xs(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

func TestTableCoversTrialMeasures(t *testing.T) {
	var base []string
	for _, m := range tableMeasures {
		name, sampled := strings.CutSuffix(m, "-sampled")
		if sampled {
			if !sweep.SampledCapable(name) {
				t.Errorf("%s: %s has no sampled tier", m, name)
			}
			continue
		}
		base = append(base, name)
	}
	if got := sweep.TrialMeasures(); !reflect.DeepEqual(base, got) {
		t.Errorf("table measures %v, registry has %v", base, got)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the repository's BENCHMARK.json
// in step with the metrics the program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Workloads, workloads) {
		t.Errorf("workloads differ from the catalog:\n%v\n%v", got.Workloads, workloads)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalog:\n%v\n%v", got.EndToEnd, endToEnd)
	}
	var want []metricDef
	for _, m := range perLayerMetrics() {
		m.Target = ""
		want = append(want, m)
	}
	if !reflect.DeepEqual(got.PerLayer, want) {
		t.Errorf("per_layer differs from the catalog")
	}
}
