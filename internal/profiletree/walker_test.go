package profiletree

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/distance"
	"contextpref/internal/hierarchy"
)

// checkKeepBest asserts that the keep-best walk Resolve runs finds the
// same winner as Best over the collect-all walk, reached through the
// same number of covering paths and the same cells.
func checkKeepBest(t *testing.T, tr *Tree, q ctxmodel.State, m distance.Metric) {
	t.Helper()
	all, accesses, err := tr.SearchCover(q, m)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := Best(all)
	r, err := tr.searchCover(context.Background(), q, m, keepBest)
	if err != nil {
		t.Fatal(err)
	}
	if r.accesses != accesses || r.found != len(all) || (r.found > 0) != ok {
		t.Fatalf("%v/%s: keepBest visited %d cells and found %d, collectAll %d and %d",
			q, m.Name(), r.accesses, r.found, accesses, len(all))
	}
	if !reflect.DeepEqual(r.best, want) {
		t.Fatalf("%v/%s: keepBest = %+v, Best(SearchCover) = %+v", q, m.Name(), r.best, want)
	}
}

func TestKeepBestMatchesCollectAll(t *testing.T) {
	e := env(t)
	r := rand.New(rand.NewSource(14))
	for round := 0; round < 30; round++ {
		tr, err := New(e, AllOrders(3)[r.Intn(6)])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range randomPrefs(e, r, 1+r.Intn(40)) {
			_ = tr.Insert(p)
		}
		for _, m := range distance.All() {
			for q := 0; q < 10; q++ {
				qs := make(ctxmodel.State, e.NumParams())
				for i := range qs {
					ed := e.Param(i).Hierarchy().ExtendedDomain()
					qs[i] = ed[r.Intn(len(ed))]
				}
				checkKeepBest(t, tr, qs, m)
			}
		}
	}
}

// TestWalkBeyondInlineParams runs the walker on an environment wider
// than its inline path buffers, where they move to the heap.
func TestWalkBeyondInlineParams(t *testing.T) {
	n := inlineParams + 2
	params := make([]*ctxmodel.Parameter, n)
	for i := range params {
		h, err := hierarchy.Uniform(fmt.Sprintf("w%d", i), 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if params[i], err = ctxmodel.NewParameter("", h); err != nil {
			t.Fatal(err)
		}
	}
	e, err := ctxmodel.NewEnvironment(params...)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(15))
	order := r.Perm(n)
	tr, err := New(e, order)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range randomPrefs(e, r, 60) {
		_ = tr.Insert(p)
	}
	hits := 0
	for q := 0; q < 40; q++ {
		qs := make(ctxmodel.State, n)
		for i := range qs {
			dv := e.Param(i).Hierarchy().DetailedValues()
			qs[i] = dv[r.Intn(len(dv))]
		}
		for _, m := range distance.All() {
			checkKeepBest(t, tr, qs, m)
			all, _, err := tr.SearchCover(qs, m)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := Best(all)
			got, _, gotOK, err := tr.SearchCoverBest(qs, m)
			if err != nil || gotOK != ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%s: SearchCoverBest = %+v, %v, %v; Best(SearchCover) = %+v", qs, m.Name(), got, gotOK, err, want)
			}
			if ok {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no query was covered; the wide walk was never exercised")
	}
}
