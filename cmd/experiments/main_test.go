package main

import (
	"strings"
	"testing"

	"contextpref/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	cases := []struct {
		which string
		frag  string
	}{
		{"fig5", "Fig. 5"},
		{"table1", "Table 1"},
		{"ablations", "branch-and-bound"},
	}
	for _, c := range cases {
		var b strings.Builder
		if err := experiments.Run(&b, c.which, 2007); err != nil {
			t.Fatalf("run(%s): %v", c.which, err)
		}
		if !strings.Contains(b.String(), c.frag) {
			t.Errorf("run(%s) output missing %q", c.which, c.frag)
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	var b strings.Builder
	if err := experiments.Run(&b, "all", 2007); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{
		"Table 1", "Fig. 5", "Fig. 6 (uniform)", "Fig. 6 (zipf a=1.5)",
		"Fig. 6 (right)", "Fig. 7 (left)", "Fig. 7 (center, exact match)",
		"Fig. 7 (right, non-exact match)", "Ablation",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("run(all) output missing %q", frag)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	var b strings.Builder
	if err := experiments.Run(&b, "fig99", 2007); err == nil {
		t.Error("unknown experiment should fail")
	}
}
