package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"contextpref/httpapi"
	"contextpref/internal/ctxmodel"
	"contextpref/internal/preference"
	"contextpref/internal/profiletree"
	"contextpref/internal/query"
	"contextpref/internal/relation"
)

// fixture is an oracle over two users with the real profile.
func fixture(t *testing.T) *oracle {
	t.Helper()
	in, err := newInputs(2)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// queryBody renders a result the way the server's /query handler does.
func queryBody(t *testing.T, res *query.Result) []byte {
	t.Helper()
	resp := httpapi.QueryResponse{Contextual: res.Contextual}
	for _, tp := range res.Tuples {
		vals := make([]string, len(tp.Tuple))
		for i, v := range tp.Tuple {
			vals[i] = v.String()
		}
		resp.Tuples = append(resp.Tuples, httpapi.QueryTuple{Score: tp.Score, Values: vals})
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resolveBody renders candidates the way the server's /resolve handler does.
func resolveBody(t *testing.T, cands []profiletree.Candidate) []byte {
	t.Helper()
	out := []httpapi.ResolveCandidate{}
	for _, c := range cands {
		out = append(out, httpapi.ResolveCandidate{State: c.State.String(), Distance: c.Distance, Specificity: c.Specificity})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceQuery finds a contextual answer with a score tie among the
// cold states.
func referenceQuery(t *testing.T, o *oracle) (*query.Result, ctxmodel.State) {
	t.Helper()
	en, err := query.NewEngine(o.base, o.rel, o.metric, relation.CombineMax)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range o.in.states[o.in.coldBase:] {
		res, err := en.ExecuteCtx(context.Background(), query.Contextual{TopK: queryTopK}, st)
		if err != nil {
			t.Fatal(err)
		}
		tie := false
		for i, tp := range res.Tuples {
			if i > 0 && tp.Score == res.Tuples[i-1].Score {
				tie = true
			}
		}
		if res.Contextual && tie {
			return res, st
		}
	}
	t.Fatal("no cold state has a contextual answer with ties")
	return nil, nil
}

func TestQueryDigestCatchesCorruptedScore(t *testing.T) {
	o := fixture(t)
	res, _ := referenceQuery(t, o)
	want := digestQueryResult(res)
	body := queryBody(t, res)
	if got, err := digestQueryBody(body); err != nil || got != want {
		t.Fatalf("a faithful body digests to %x (%v), want %x", got, err, want)
	}

	// Tuples inside a tie may come in any order.
	perm := *res
	perm.Tuples = append([]relation.ScoredTuple(nil), res.Tuples...)
	for i := 1; i < len(perm.Tuples); i++ {
		if perm.Tuples[i].Score == perm.Tuples[i-1].Score {
			perm.Tuples[i], perm.Tuples[i-1] = perm.Tuples[i-1], perm.Tuples[i]
			break
		}
	}
	if got, _ := digestQueryBody(queryBody(t, &perm)); got != want {
		t.Error("a permutation inside a score tie was flagged")
	}

	// A corrupted score that keeps the ranking order.
	bad := perm
	bad.Tuples = append([]relation.ScoredTuple(nil), res.Tuples...)
	last := len(bad.Tuples) - 1
	bad.Tuples[last].Score -= 0.001
	if got, _ := digestQueryBody(queryBody(t, &bad)); got == want {
		t.Error("a corrupted score was not caught")
	}
	// A dropped tuple.
	bad.Tuples = append([]relation.ScoredTuple(nil), res.Tuples[:last]...)
	if got, _ := digestQueryBody(queryBody(t, &bad)); got == want {
		t.Error("a dropped tuple was not caught")
	}
	// A ranking out of score order.
	bad.Tuples = append([]relation.ScoredTuple(nil), res.Tuples...)
	bad.Tuples[last].Score = res.Tuples[0].Score + 0.1
	if _, err := digestQueryBody(queryBody(t, &bad)); err == nil {
		t.Error("a ranking out of score order was not caught")
	}
	// The contextual flag.
	bad = *res
	bad.Contextual = false
	if got, _ := digestQueryBody(queryBody(t, &bad)); got == want {
		t.Error("a wrong contextual flag was not caught")
	}
}

func TestResolveDigestCatchesDroppedCandidate(t *testing.T) {
	o := fixture(t)
	var cands []profiletree.Candidate
	for _, st := range o.in.states[o.in.coldBase:] {
		c, _, err := o.base.SearchCoverCtx(context.Background(), st, o.metric)
		if err != nil {
			t.Fatal(err)
		}
		if len(c) >= 3 {
			cands = c
			break
		}
	}
	if cands == nil {
		t.Fatal("no cold state has three covering candidates")
	}
	// The server sorts by distance; the reference scan does not.
	srv := append([]profiletree.Candidate(nil), cands...)
	for i := range srv {
		for j := i + 1; j < len(srv); j++ {
			if srv[j].Distance < srv[i].Distance {
				srv[i], srv[j] = srv[j], srv[i]
			}
		}
	}
	want := digestCandidates(cands)
	if got, err := digestResolveBody(resolveBody(t, srv)); err != nil || got != want {
		t.Fatalf("a faithful body digests to %x (%v), want %x", got, err, want)
	}
	if got, _ := digestResolveBody(resolveBody(t, srv[1:])); got == want {
		t.Error("a dropped candidate was not caught")
	}
	moved := append([]profiletree.Candidate(nil), srv...)
	moved[len(moved)-1].Distance += 0.5
	if got, _ := digestResolveBody(resolveBody(t, moved)); got == want {
		t.Error("a wrong distance was not caught")
	}
	rev := append([]profiletree.Candidate(nil), srv...)
	rev[0], rev[len(rev)-1] = rev[len(rev)-1], rev[0]
	if rev[0].Distance != rev[len(rev)-1].Distance {
		if _, err := digestResolveBody(resolveBody(t, rev)); err == nil {
			t.Error("candidates out of distance order were not caught")
		}
	}
}

// exportOf renders the profile the server would export for the seed
// profile plus extra preferences.
func exportOf(t *testing.T, o *oracle, extra ...preference.Preference) string {
	t.Helper()
	tr, err := profiletree.New(o.in.env, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(append([]preference.Preference(nil), o.in.prefs...), extra...) {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	text, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// writeRun builds the recorded requests of one user that adds two
// preferences, deletes the first, queries, and is exported after a
// restart with the given text.
func writeRun(t *testing.T, o *oracle, export func(kept preference.Preference) string) *client {
	t.Helper()
	g := newGen(o.in, &spec{users: 2}, 0, 1)
	c := &client{in: o.in, gen: g, bodies: map[uint64][]byte{}, exports: map[int32]string{}}
	base := len(o.in.prefs)
	c.recs = append(c.recs, rec{op: op{kind: opSeed}, status: 200, prefs: int32(base)})
	a1, a2 := g.add(0), g.add(0)
	c.recs = append(c.recs,
		rec{op: a1, status: 200, prefs: int32(base + 1)},
		rec{op: a2, status: 200, prefs: int32(base + 2)},
		rec{op: op{kind: opDelete, pref: a1.pref}, status: 200, prefs: int32(base + 1), removed: 1})
	kept, err := preference.ParseLine(o.in.benchPrefs.line(a2.pref))
	if err != nil {
		t.Fatal(err)
	}
	c.exports[0] = export(kept)
	c.recs = append(c.recs, rec{op: op{kind: opExport}, status: 200})
	return c
}

func TestVerifyCatchesLostAcknowledgedWrite(t *testing.T) {
	o := fixture(t)
	good := writeRun(t, o, func(kept preference.Preference) string { return exportOf(t, o, kept) })
	if problems, n := o.verify([]*client{good}, 2); len(problems) != 0 || n != 5 {
		t.Fatalf("faithful run: %d checked, problems %v", n, problems)
	}
	lost := writeRun(t, o, func(preference.Preference) string { return exportOf(t, o) })
	problems, _ := o.verify([]*client{lost}, 2)
	if len(problems) != 1 || !strings.Contains(problems[0], "1 acknowledged entries missing") {
		t.Errorf("a lost acknowledged write gave problems %v", problems)
	}
	resurrected := writeRun(t, o, func(kept preference.Preference) string {
		first, err := preference.ParseLine(o.in.benchPrefs.line(0))
		if err != nil {
			t.Fatal(err)
		}
		return exportOf(t, o, kept, first)
	})
	problems, _ = o.verify([]*client{resurrected}, 2)
	if len(problems) != 1 || !strings.Contains(problems[0], "1 unexpected entries") {
		t.Errorf("a deleted preference that came back gave problems %v", problems)
	}
}

func TestVerifyCatchesCorruptedAnswer(t *testing.T) {
	o := fixture(t)
	res, st := referenceQuery(t, o)
	id := int32(-1)
	for i, s := range o.in.states {
		if s.Equal(st) {
			id = int32(i)
			break
		}
	}
	check := func(body []byte) []string {
		c := &client{in: o.in, bodies: map[uint64][]byte{42: body}, exports: map[int32]string{}}
		c.recs = append(c.recs, rec{op: op{kind: opQuery, user: 1, state: id}, status: 200, hash: 42})
		problems, _ := o.verify([]*client{c}, 2)
		return problems
	}
	if p := check(queryBody(t, res)); len(p) != 0 {
		t.Fatalf("faithful answer flagged: %v", p)
	}
	bad := *res
	bad.Tuples = append([]relation.ScoredTuple(nil), res.Tuples...)
	bad.Tuples[len(bad.Tuples)-1].Score -= 0.001
	if p := check(queryBody(t, &bad)); len(p) != 1 || !strings.Contains(p[0], "differs from the sequential-scan reference") {
		t.Errorf("corrupted answer gave problems %v", p)
	}
}
