package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 values = %v %v %v", q1, med, q3)
	}
}

func TestDecideGain(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // IQR 2
	b := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	v := decide(a, b, false, 0.1)
	if v.Status != "gain" || v.Wins != 10 {
		t.Errorf("clear improvement: %v", v)
	}
	// The same samples with higher-is-better are a regression of 10%,
	// beyond a 5% bound.
	if v := decide(a, b, true, 0.05); v.Status != "regression" {
		t.Errorf("clear regression: %v", v)
	}
}

func TestDecideNeedsNineTenthsOfPairs(t *testing.T) {
	a := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	b := []float64{90, 90, 90, 90, 90, 90, 90, 90, 110, 110} // wins 8 of 10
	if v := decide(a, b, false, 0.25); v.Status == "gain" {
		t.Errorf("8 wins of 10 claimed a gain: %v", v)
	}
	// Ties count for neither side: 9 wins and one tie is still 9/10.
	b[8], b[9] = 90, 100
	if v := decide(a, b, false, 0.25); v.Status != "gain" || v.Tied != 1 {
		t.Errorf("9 wins + 1 tie: %v", v)
	}
}

func TestDecideNeedsMedianShiftBeyondParentIQR(t *testing.T) {
	// B wins every pair, but by less than A's own spread.
	a := []float64{100, 110, 90, 105, 95, 100, 110, 90, 105, 95}
	b := make([]float64, len(a))
	for i, x := range a {
		b[i] = x - 1
	}
	v := decide(a, b, false, 0.25)
	if v.Wins != 10 || v.Status == "gain" {
		t.Errorf("win inside the parent's IQR claimed a gain: %v", v)
	}
}

func TestDecideUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	a := []float64{100, 140, 70, 120, 80, 100, 140, 70, 120, 80}
	b := []float64{105, 145, 75, 125, 85, 105, 145, 75, 125, 85}
	if v := decide(a, b, false, 0.1); v.Status != "unresolved" {
		t.Errorf("spread beyond the bound: %v", v)
	}
	if v := decide(a, a, false, 0.5); v.Status != "within-bound" {
		t.Errorf("identical sides within a wide bound: %v", v)
	}
}

func TestDecideNeedsTenPairs(t *testing.T) {
	a := []float64{100, 100, 100}
	b := []float64{50, 50, 50}
	if v := decide(a, b, false, 0.25); v.Status != "too-few-pairs" {
		t.Errorf("three pairs gave a verdict: %v", v)
	}
}

func TestRelSpreadZeroMedian(t *testing.T) {
	if relSpread(0, 0, 0) != 0 || !math.IsInf(relSpread(-1, 0, 1), 1) {
		t.Error("zero-median spread")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the metric catalog in this
// package and the repository's BENCHMARK.json in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
