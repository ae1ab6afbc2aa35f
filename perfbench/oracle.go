package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/dataset"
	"contextpref/internal/distance"
	"contextpref/internal/preference"
	"contextpref/internal/profiletree"
	"contextpref/internal/query"
	"contextpref/internal/relation"
)

// oracle is the answer reference: the paper's serial baseline
// (profiletree.Sequential) under the same relation, metric and combiner
// the server uses. It shares no code with the profile tree or the query
// tree cache it checks.
type oracle struct {
	in     *inputs
	rel    *relation.Relation
	metric distance.Metric
	base   *profiletree.Sequential
}

func newOracle(in *inputs) (*oracle, error) {
	rel, err := dataset.POIs(in.env, poiCount, poiSeed)
	if err != nil {
		return nil, err
	}
	if err := rel.CreateIndex("type"); err != nil {
		return nil, err
	}
	o := &oracle{in: in, rel: rel, metric: distance.Jaccard{}}
	if o.base, err = o.seeded(); err != nil {
		return nil, err
	}
	return o, nil
}

// seeded returns a fresh serial store holding the seed profile.
func (o *oracle) seeded() (*profiletree.Sequential, error) {
	sq, err := profiletree.NewSequential(o.in.env)
	if err != nil {
		return nil, err
	}
	for _, p := range o.in.prefs {
		if err := sq.Insert(p); err != nil {
			return nil, err
		}
	}
	return sq, nil
}

// answer computes the reference digest of a read against a store.
func (o *oracle) answer(sq *profiletree.Sequential, kind uint8, st ctxmodel.State) (uint64, error) {
	ctx := context.Background()
	if kind == opResolve {
		cands, _, err := sq.SearchCoverCtx(ctx, st, o.metric)
		if err != nil {
			return 0, err
		}
		return digestCandidates(cands), nil
	}
	en, err := query.NewEngine(sq, o.rel, o.metric, relation.CombineMax)
	if err != nil {
		return 0, err
	}
	res, err := en.ExecuteCtx(ctx, query.Contextual{TopK: queryTopK}, st)
	if err != nil {
		return 0, err
	}
	return digestQueryResult(res), nil
}

// Canonical digests. A /query answer is its contextual flag and its
// (score, pid) pairs sorted by score then pid: the pairwise scores in
// rank order, with tuple identity free to permute inside a tie (ties
// with the k-th score are all included, so every tie group is whole).
// A /resolve answer is the multiset of (state, distance).

type scored struct {
	score float64
	pid   string
}

func digestScored(contextual bool, ts []scored) uint64 {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].score != ts[j].score {
			return ts[i].score > ts[j].score
		}
		return ts[i].pid < ts[j].pid
	})
	h := fnv.New64a()
	var b [8]byte
	if contextual {
		h.Write([]byte{'Q', 1})
	} else {
		h.Write([]byte{'Q', 0})
	}
	for _, t := range ts {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(t.score))
		h.Write(b[:])
		h.Write([]byte(t.pid))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func digestQueryResult(res *query.Result) uint64 {
	ts := make([]scored, len(res.Tuples))
	for i, t := range res.Tuples {
		ts[i] = scored{t.Score, t.Tuple[0].String()}
	}
	return digestScored(res.Contextual, ts)
}

// digestQueryBody digests a POST /query response body; it fails if the
// tuples are not in non-increasing score order.
func digestQueryBody(body []byte) (uint64, error) {
	var v struct {
		Contextual bool `json:"contextual"`
		Tuples     []struct {
			Score  float64  `json:"score"`
			Values []string `json:"values"`
		} `json:"tuples"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, err
	}
	ts := make([]scored, len(v.Tuples))
	for i, t := range v.Tuples {
		if len(t.Values) == 0 {
			return 0, errors.New("tuple without values")
		}
		if i > 0 && t.Score > v.Tuples[i-1].Score {
			return 0, fmt.Errorf("tuple %d scores %v above its predecessor's %v", i, t.Score, v.Tuples[i-1].Score)
		}
		ts[i] = scored{t.Score, t.Values[0]}
	}
	return digestScored(v.Contextual, ts), nil
}

type placed struct {
	state    string
	distance float64
}

func digestPlaced(ps []placed) uint64 {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].state != ps[j].state {
			return ps[i].state < ps[j].state
		}
		return ps[i].distance < ps[j].distance
	})
	h := fnv.New64a()
	var b [8]byte
	h.Write([]byte{'R'})
	for _, p := range ps {
		h.Write([]byte(p.state))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.distance))
		h.Write(b[:])
	}
	return h.Sum64()
}

func digestCandidates(cands []profiletree.Candidate) uint64 {
	ps := make([]placed, len(cands))
	for i, c := range cands {
		ps[i] = placed{c.State.String(), c.Distance}
	}
	return digestPlaced(ps)
}

// digestResolveBody digests a GET /resolve response body; it fails if
// the candidates are not in non-decreasing distance order.
func digestResolveBody(body []byte) (uint64, error) {
	var v []struct {
		State    string  `json:"state"`
		Distance float64 `json:"distance"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, err
	}
	ps := make([]placed, len(v))
	for i, c := range v {
		if i > 0 && c.Distance < v[i-1].Distance {
			return 0, fmt.Errorf("candidate %d at distance %v before its predecessor's %v", i, c.Distance, v[i-1].Distance)
		}
		ps[i] = placed{c.State, c.Distance}
	}
	return digestPlaced(ps), nil
}

// checkExport compares a user's GET /preferences text with the
// preferences it must hold, as sets of (state, clause, score) entries:
// every acknowledged write present, nothing else.
func checkExport(env *ctxmodel.Environment, text string, want []preference.Preference) error {
	entries := func(p preference.Preference, into map[string]bool) error {
		states, err := p.Descriptor.Context(env)
		if err != nil {
			return err
		}
		for _, s := range states {
			into[fmt.Sprintf("%s | %s | %v", s, p.Clause, p.Score)] = true
		}
		return nil
	}
	exp := map[string]bool{}
	for _, p := range want {
		if err := entries(p, exp); err != nil {
			return err
		}
	}
	got := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := preference.ParseLine(line)
		if err != nil {
			return fmt.Errorf("export line %q: %w", line, err)
		}
		if err := entries(p, got); err != nil {
			return err
		}
	}
	var missing, extra []string
	for e := range exp {
		if !got[e] {
			missing = append(missing, e)
		}
	}
	for e := range got {
		if !exp[e] {
			extra = append(extra, e)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("%d acknowledged entries missing %v, %d unexpected entries %v",
		len(missing), firstN(missing, 3), len(extra), firstN(extra, 3))
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// verify checks every recorded response of every client: reads against
// the reference answer of the profile the user held when the read was
// sent, writes against the reference's counts, and the post-restart
// exports against the acknowledged writes. It returns the problems found
// (at most a few per user) and how many responses it compared.
func (o *oracle) verify(cs []*client, users int) ([]string, int) {
	byUser := make([][]*rec, users)
	for _, c := range cs {
		for i := range c.recs {
			r := &c.recs[i]
			byUser[r.user] = append(byUser[r.user], r)
		}
	}
	bodies := map[uint64][]byte{}
	for _, c := range cs {
		for h, b := range c.bodies {
			bodies[h] = b
		}
	}
	exports := map[int32]string{}
	for _, c := range cs {
		for u, t := range c.exports {
			exports[u] = t
		}
	}
	var (
		mu       sync.Mutex
		problems []string
		checked  int
		next     int
	)
	work := func() {
		v := &userVerifier{o: o, bodies: bodies, memo: map[memoKey]uint64{}, canon: map[canonKey]canonVal{}}
		for {
			mu.Lock()
			u := next
			next++
			mu.Unlock()
			if u >= users {
				break
			}
			ps, n := v.run(int32(u), byUser[u], exports)
			mu.Lock()
			problems = append(problems, ps...)
			checked += n
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	sort.Strings(problems)
	return problems, checked
}

type memoKey struct {
	content int64 // 0 = the seed profile, else one user's version
	kind    uint8
	state   int32
}

type canonKey struct {
	kind uint8
	hash uint64
}

type canonVal struct {
	digest uint64
	err    error
}

// userVerifier walks one user's requests in order at a time; its memo
// and parsed-body caches are reused across the users one worker takes.
type userVerifier struct {
	o       *oracle
	bodies  map[uint64][]byte
	memo    map[memoKey]uint64
	canon   map[canonKey]canonVal
	version int64
}

func (v *userVerifier) served(kind uint8, hash uint64) canonVal {
	k := canonKey{kind, hash}
	if c, ok := v.canon[k]; ok {
		return c
	}
	var c canonVal
	if kind == opResolve {
		c.digest, c.err = digestResolveBody(v.bodies[hash])
	} else {
		c.digest, c.err = digestQueryBody(v.bodies[hash])
	}
	v.canon[k] = c
	return c
}

func (v *userVerifier) run(u int32, recs []*rec, exports map[int32]string) ([]string, int) {
	o := v.o
	var problems []string
	fail := func(r *rec, format string, args ...any) {
		if len(problems) < 3 {
			problems = append(problems, fmt.Sprintf("user %s: %s: %s", o.in.users[u], r, fmt.Sprintf(format, args...)))
		}
	}
	sq := o.base // the user's reference store; copied on first write
	var content int64
	var live []int32
	prefs := o.base.NumPreferences()
	ambiguous := false
	checked := 0
	for _, r := range recs {
		if ambiguous {
			break
		}
		if r.status == -2 {
			fail(r, "2xx response body does not parse")
			continue
		}
		if !r.ok() {
			// A write whose response never arrived may or may not have
			// been applied: nothing later for this user can be checked.
			if r.status == -1 && (r.kind == opAdd || r.kind == opDelete) {
				ambiguous = true
			}
			continue
		}
		checked++
		switch r.kind {
		case opSeed:
			if int(r.prefs) != len(o.in.prefs) {
				fail(r, "seeded with %d preferences, want %d", r.prefs, len(o.in.prefs))
			}
		case opQuery, opResolve:
			key := memoKey{content, r.kind, r.state}
			want, ok := v.memo[key]
			if !ok {
				var err error
				if want, err = o.answer(sq, r.kind, o.in.states[r.state]); err != nil {
					fail(r, "reference: %v", err)
					continue
				}
				v.memo[key] = want
			}
			got := v.served(r.kind, r.hash)
			if got.err != nil {
				fail(r, "malformed answer: %v", got.err)
			} else if got.digest != want {
				fail(r, "answer differs from the sequential-scan reference (served body %q)", clip(v.bodies[r.hash], 300))
			}
		case opAdd, opDelete:
			if sq == o.base {
				var err error
				if sq, err = o.seeded(); err != nil {
					fail(r, "reference: %v", err)
					continue
				}
			}
			p, err := preference.ParseLine(o.in.benchPrefs.line(r.pref))
			if err != nil {
				fail(r, "bench preference: %v", err)
				continue
			}
			if r.kind == opAdd {
				if err := sq.Insert(p); err != nil {
					fail(r, "server accepted a write the reference rejects: %v", err)
					continue
				}
				live = append(live, r.pref)
			} else {
				n, err := sq.Delete(p)
				if err != nil {
					fail(r, "reference delete: %v", err)
					continue
				}
				if int(r.removed) != n {
					fail(r, "removed %d entries, reference removed %d", r.removed, n)
				}
				for i, id := range live {
					if id == r.pref {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			prefs = sq.NumPreferences()
			if int(r.prefs) != prefs {
				fail(r, "reports %d preferences, reference holds %d", r.prefs, prefs)
			}
			if len(live) == 0 {
				content = 0 // back to exactly the seed profile
			} else {
				v.version++
				content = int64(u+1)<<40 | v.version
			}
		case opExport:
			want := append([]preference.Preference(nil), o.in.prefs...)
			for _, id := range live {
				p, err := preference.ParseLine(o.in.benchPrefs.line(id))
				if err != nil {
					fail(r, "bench preference: %v", err)
					continue
				}
				want = append(want, p)
			}
			if err := checkExport(o.in.env, exports[u], want); err != nil {
				fail(r, "after restart: %v", err)
			}
		}
	}
	return problems, checked
}

func clip(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
