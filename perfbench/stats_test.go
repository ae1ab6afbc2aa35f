package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {1, 1}, {99.5, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSelfTimesAddUp(t *testing.T) {
	// http -> dir + safe; safe -> sys; sys -> get + 0.25*exec; exec -> resolve.
	rows := []layerRow{
		{name: "http", total: 100, children: []weighted{{"dir", 1}, {"safe", 1}}},
		{name: "dir", total: 1},
		{name: "safe", total: 30, children: []weighted{{"sys", 1}}},
		{name: "sys", total: 28, children: []weighted{{"get", 1}, {"exec", 0.25}}},
		{name: "get", total: 2},
		{name: "exec", total: 80, children: []weighted{{"resolve", 1}}},
		{name: "resolve", total: 50},
	}
	self := selfTimes(rows)
	want := map[string]float64{"http": 69, "dir": 1, "safe": 2, "sys": 6, "get": 2, "exec": 30, "resolve": 50}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	if p := composeProblems(rows, "http", 0.25); len(p) != 0 {
		t.Errorf("consistent rows reported as not composing: %v", p)
	}
	// A row slower than its parent shows as a negative self time. Within
	// the tolerance it is noise; beyond it the check fires.
	rows[2].total = 20
	if s := selfTimes(rows)["safe"]; s != -8 {
		t.Errorf("self[safe] = %v, want -8", s)
	}
	if p := composeProblems(rows, "http", 0.25); len(p) != 0 {
		t.Errorf("a self time of -8 against a root of 100 is within 25%%, got %v", p)
	}
	rows[2].total = 1
	if p := composeProblems(rows, "http", 0.25); len(p) != 1 {
		t.Errorf("safe (self -27 against a root of 100) should be the one problem, got %v", p)
	}
	rows[2].total = 30
	rows[6].total = 0
	if p := composeProblems(rows, "http", 0.25); len(p) != 1 {
		t.Errorf("an unmeasured row should be the one problem, got %v", p)
	}
}
