package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest sample with at least p% of the
// samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// median returns the median of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// weighted is one child row of a layer: the child's per-call time and
// how many child calls one parent call makes on average.
type weighted struct {
	name   string
	weight float64
}

// layerRow is one in-process measurement row: a layer's public entry
// point timed on the workload's request stream, and the rows it calls.
type layerRow struct {
	name     string
	total    float64 // mean µs per call, children included
	children []weighted
}

// selfTimes subtracts from every row the weighted rows it calls, giving
// each layer's own cost per call of that layer. Rows must name only
// children present in rows.
func selfTimes(rows []layerRow) map[string]float64 {
	total := make(map[string]float64, len(rows))
	for _, r := range rows {
		total[r.name] = r.total
	}
	self := make(map[string]float64, len(rows))
	for _, r := range rows {
		s := r.total
		for _, c := range r.children {
			s -= c.weight * total[c.name]
		}
		self[r.name] = s
	}
	return self
}

// composeProblems checks that the rows describe one call path. A
// layer's self time can come out below zero only by the rows' noise, so
// a row that was not measured, or whose self time is below −tol times
// the root's total (a child row measured slower than the parent that
// calls it), is reported.
func composeProblems(rows []layerRow, root string, tol float64) []string {
	self := selfTimes(rows)
	rootTotal := 0.0
	for _, r := range rows {
		if r.name == root {
			rootTotal = r.total
		}
	}
	var out []string
	for _, r := range rows {
		switch {
		case r.total <= 0:
			out = append(out, fmt.Sprintf("%s was not measured", r.name))
		case self[r.name] < -tol*rootTotal:
			out = append(out, fmt.Sprintf("%s: self time %.3f µs is below −%.0f%% of %s (%.3f µs)",
				r.name, self[r.name], tol*100, root, rootTotal))
		}
	}
	return out
}
