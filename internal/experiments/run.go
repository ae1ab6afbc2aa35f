package experiments

import (
	"fmt"
	"io"

	"contextpref/internal/dataset"
	"contextpref/internal/usability"
)

// Run regenerates one experiment (table1, fig5, fig6, fig7, ablations)
// or all of them, rendering each result to w. Every experiment is
// deterministic in seed, so the output is byte-stable; testdata holds
// the seed-2007 renderings the golden test compares against.
func Run(w io.Writer, which string, seed int64) error {
	want := func(name string) bool { return which == "all" || which == name }
	ran := false
	if want("table1") {
		ran = true
		cfg := usability.DefaultConfig()
		cfg.Seed = seed
		res, err := Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
	if want("fig5") {
		ran = true
		res, err := Fig5(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
	if want("fig6") {
		ran = true
		uni, err := Fig6(dataset.Uniform, 0, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, uni.Render())
		zipf, err := Fig6(dataset.Zipf, 1.5, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, zipf.Render())
		skew, err := Fig6Skew(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, skew.Render())
	}
	if want("fig7") {
		ran = true
		real7, err := Fig7Real(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, real7.Render())
		center, err := Fig7Synthetic(true, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, center.Render())
		right, err := Fig7Synthetic(false, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, right.Render())
	}
	if want("ablations") {
		ran = true
		da, err := DistanceAblation(seed, 200)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, da.Render())
		sa, err := SearchAblation(seed, 200)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sa.Render())
		ca, err := CacheAblation(seed, 200)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, ca.Render())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want table1|fig5|fig6|fig7|ablations|all)", which)
	}
	return nil
}
