package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so figures here match the acceptance check. A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	q := make([]float64, 0, 3)
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q = append(q, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/n)
	}
	return q[0], median(d), q[2]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// minPairs is the fewest alternating pairs a verdict may rest on.
const minPairs = 10

// verdict is the outcome of comparing a parent (A) and a change (B) on one
// metric of one workload over alternating pairs.
type verdict struct {
	Pairs              int
	Wins, Losses, Tied int // of B against A, in the metric's better direction
	MedA, Q1A, Q3A     float64
	MedB, Q1B, Q3B     float64
	Status             string // gain, regression, unresolved, within-bound or too-few-pairs
}

// decide applies the two rules of a paired comparison of at least
// minPairs pairs. The gain rule: B wins at least nine tenths of all pairs
// (ties count for neither side) and the medians differ, in B's favour, by
// more than A's interquartile range. The no-regression rule: B's median
// may be worse than A's by at most bound (a share of A's median); where
// either side's spread (IQR over median) is wider than the bound the
// metric is unresolved, unless every run of B reads better than every run
// of A.
func decide(a, b []float64, higherBetter bool, bound float64) verdict {
	n := min(len(a), len(b))
	v := verdict{Pairs: n}
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	for i := 0; i < n; i++ {
		switch {
		case better(b[i], a[i]):
			v.Wins++
		case better(a[i], b[i]):
			v.Losses++
		default:
			v.Tied++
		}
	}
	v.Q1A, v.MedA, v.Q3A = quartiles(a[:n])
	v.Q1B, v.MedB, v.Q3B = quartiles(b[:n])
	if n < minPairs {
		v.Status = "too-few-pairs"
		return v
	}
	if 10*v.Wins >= 9*n && better(v.MedB, v.MedA) && math.Abs(v.MedB-v.MedA) > v.Q3A-v.Q1A {
		v.Status = "gain"
		return v
	}
	spread := max(relSpread(v.Q1A, v.MedA, v.Q3A), relSpread(v.Q1B, v.MedB, v.Q3B))
	allBetter := true
	for _, x := range b[:n] {
		for _, y := range a[:n] {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	worse := (v.MedB - v.MedA) / math.Abs(v.MedA) // > 0: B larger
	if higherBetter {
		worse = -worse
	}
	switch {
	case spread > bound && !allBetter:
		v.Status = "unresolved"
	case worse > bound:
		v.Status = "regression"
	default:
		v.Status = "within-bound"
	}
	return v
}

// relSpread is the interquartile range as a share of the median.
func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func (v verdict) String() string {
	return fmt.Sprintf("A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  B wins %d/%d (ties %d)  %s",
		v.MedA, v.Q1A, v.Q3A, v.MedB, v.Q1B, v.Q3B, v.Wins, v.Pairs, v.Tied, v.Status)
}
