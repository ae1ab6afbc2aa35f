package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"contextpref"
	"contextpref/httpapi"
	"contextpref/internal/dataset"
	"contextpref/internal/distance"
	"contextpref/internal/journal"
	"contextpref/internal/preference"
	"contextpref/internal/query"
	"contextpref/internal/querytree"
	"contextpref/internal/relation"
	"contextpref/internal/tracing"
)

// Replay sizes of the traced in-process run.
const (
	replayWarm     = 2048 // untimed operations that fill caches first
	replayTimed    = 8192 // timed operations of the main mix
	replayResolve  = 2048 // resolves at least, for the resolve rows
	replayWrites   = 200  // writes at least, for the write rows (fsync'd)
	replayRepeats  = 3    // journal replays, median taken
	overheadBlock  = 256  // ops per A/B block of the span-overhead pairing
	overheadRounds = 4    // passes of the query stream for that pairing
)

// Layer rows, in the order the report prints them.
const (
	lyHTTPQuery uint8 = iota
	lyHTTPResolve
	lyHTTPWrite
	lyDirectory
	lySafeQuery
	lySysQuery
	lyCacheGet
	lyExecute
	lyResolve
	lyResolveAll
	lyAppend
	numLayers
)

var layerNames = [numLayers]string{
	"httpapi.query_us", "httpapi.resolve_us", "httpapi.write_us", "directory.user_us",
	"safesystem.query_us", "system.query_us", "querytree.get_us", "query.execute_us",
	"profiletree.resolve_us", "profiletree.resolve_all_us", "journal.append_us",
}

// span is one timed call into a layer's public entry point, recorded by
// the benchmark around the call. Spans stay in memory until the run
// ends.
type span struct {
	layer uint8
	op    int32         // index into the replayed stream
	start time.Duration // since the traced run began
	dur   time.Duration
}

// tracer records spans for the traced run.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) time(layer uint8, opIdx int, f func()) {
	t0 := time.Now()
	f()
	t.spans = append(t.spans, span{layer: layer, op: int32(opIdx), start: t0.Sub(t.origin), dur: time.Since(t0)})
}

// meanUS is a layer's mean span duration in µs.
func (t *tracer) meanUS(layer uint8) float64 {
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.layer == layer {
			sum += s.dur
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum.Nanoseconds()) / float64(n) / 1e3
}

// replayer drives the in-process rows with the workload's own request
// streams, regenerated from the seed.
type replayer struct {
	in      *inputs
	sp      *spec
	rel     *relation.Relation
	metric  distance.Metric
	main    []op // replayWarm untimed then replayTimed timed operations
	resolve []op // the main stream's resolves, then moreResolve
	writes  []op // the main stream's writes, then moreWrites
	// moreResolve and moreWrites are the parts of resolve and writes
	// drawn after the main stream (see newReplayer).
	moreResolve, moreWrites []op
	prefs                   map[int32]preference.Preference
	tr                      *tracer
	scratch                 string
}

func newReplayer(base *inputs, sp *spec, seed int64, scratch string) (*replayer, error) {
	in := *base
	in.benchPrefs = &prefTable{} // the replay draws its own write preferences
	rel, err := dataset.POIs(in.env, poiCount, poiSeed)
	if err != nil {
		return nil, err
	}
	if err := rel.CreateIndex("type"); err != nil {
		return nil, err
	}
	rp := &replayer{in: &in, sp: sp, rel: rel, metric: distance.Jaccard{}, prefs: map[int32]preference.Preference{},
		tr: &tracer{origin: time.Now()}, scratch: scratch}
	var gens [numClients]*gen
	for c := range gens {
		gens[c] = newGen(rp.in, sp, c, seed)
	}
	for i := 0; i < replayWarm+replayTimed; i++ {
		rp.main = append(rp.main, gens[i%numClients].next())
	}
	for _, o := range rp.main {
		switch o.kind {
		case opResolve:
			rp.resolve = append(rp.resolve, o)
		case opAdd, opDelete:
			rp.writes = append(rp.writes, o)
		}
	}
	// A kind the stream lacks or only probes gets a longer stream of its
	// own: probes on the clients' probe users, drawn after the main stream.
	for i := len(rp.resolve); i < replayResolve; i++ {
		rp.moreResolve = append(rp.moreResolve, gens[i%numClients].probeResolve())
	}
	for i := len(rp.writes); i < replayWrites; i++ {
		rp.moreWrites = append(rp.moreWrites, gens[i%numClients].probeWrite())
	}
	rp.resolve = append(rp.resolve, rp.moreResolve...)
	rp.writes = append(rp.writes, rp.moreWrites...)
	for _, o := range append(append([]op(nil), rp.main...), rp.writes...) {
		if o.kind == opAdd || o.kind == opDelete {
			p, err := preference.ParseLine(rp.in.benchPrefs.line(o.pref))
			if err != nil {
				return nil, err
			}
			rp.prefs[o.pref] = p
		}
	}
	return rp, nil
}

func (rp *replayer) systemOptions(reg *contextpref.TelemetryRegistry) []contextpref.Option {
	return []contextpref.Option{contextpref.WithMetric(rp.metric), contextpref.WithTelemetry(reg),
		contextpref.WithQueryCache(cacheCap)}
}

// newDirectory builds a directory wired like cpserver's -multiuser mode.
func (rp *replayer) newDirectory(reg *contextpref.TelemetryRegistry) (*contextpref.Directory, error) {
	seed := rp.in.prefs
	return contextpref.NewDirectory(rp.in.env, rp.rel,
		contextpref.WithSystemOptions(rp.systemOptions(reg)...),
		contextpref.WithDirectoryTelemetry(reg),
		contextpref.WithShards(rp.sp.shards),
		contextpref.WithDefaultProfile(func(string) ([]preference.Preference, error) { return seed, nil }))
}

// layerResults are the per-layer metrics of the traced run.
type layerResults struct {
	values map[string]float64
	rows   []layerRow
	tr     *tracer
}

// run measures every in-process row. storeCopy is the post-run store
// of the loopback run; profileBytes the live profile text it held.
func (rp *replayer) run(storeCopy string, profileBytes int) (*layerResults, error) {
	res := &layerResults{values: map[string]float64{}, tr: rp.tr}
	if err := rp.replayJournal(res, storeCopy, profileBytes); err != nil {
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	if err := rp.systemRows(res); err != nil {
		return nil, err
	}
	if err := rp.serviceRows(res); err != nil {
		return nil, err
	}
	if err := rp.appendRow(res); err != nil {
		return nil, fmt.Errorf("journal append: %w", err)
	}
	for l := uint8(0); l < numLayers; l++ {
		res.values[layerNames[l]] = rp.tr.meanUS(l)
	}
	miss := 1 - res.values["querytree.hit_ratio"]
	v := res.values
	res.rows = []layerRow{
		{name: "httpapi.query_us", total: v["httpapi.query_us"], children: []weighted{{"directory.user_us", 1}, {"safesystem.query_us", 1}}},
		{name: "directory.user_us", total: v["directory.user_us"]},
		{name: "safesystem.query_us", total: v["safesystem.query_us"], children: []weighted{{"system.query_us", 1}}},
		{name: "system.query_us", total: v["system.query_us"], children: []weighted{{"querytree.get_us", 1}, {"query.execute_us", miss}}},
		{name: "querytree.get_us", total: v["querytree.get_us"]},
		{name: "query.execute_us", total: v["query.execute_us"], children: []weighted{{"profiletree.resolve_us", 1}}},
		{name: "profiletree.resolve_us", total: v["profiletree.resolve_us"]},
	}
	return res, nil
}

// replayJournal times journal.Open plus directory replay on a copy of
// the post-run store, and relates the store's size to the profile text
// it holds.
func (rp *replayer) replayJournal(res *layerResults, store string, profileBytes int) error {
	var times []float64
	for rep := 0; rep < replayRepeats; rep++ {
		d, err := rp.newDirectory(contextpref.NewTelemetryRegistry())
		if err != nil {
			return err
		}
		t0 := time.Now()
		if rp.sp.shards <= 1 {
			j, recs, err := journal.Open(store)
			if err != nil {
				return err
			}
			err = d.Replay(recs)
			j.Close()
			if err != nil {
				return err
			}
		} else {
			for i := 0; i < rp.sp.shards; i++ {
				j, recs, err := journal.Open(filepath.Join(store, journal.ShardDir(i)))
				if err != nil {
					return err
				}
				err = d.ReplayShard(i, recs)
				j.Close()
				if err != nil {
					return err
				}
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if got := d.NumUsers(); got != len(rp.in.users) {
			return fmt.Errorf("replay recovered %d users, want %d", got, len(rp.in.users))
		}
	}
	res.values["journal.replay_s"] = median(times)
	var size int64
	err := filepath.Walk(store, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			size += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	res.values["journal.bytes_per_user_byte"] = float64(size) / float64(profileBytes)
	return nil
}

// live tracks the bench preferences a replay has added per user, so a
// row can put every profile back to the seed before the next row.
type live map[int32][]int32

func (l live) apply(o op) {
	if o.kind == opAdd {
		l[o.user] = append(l[o.user], o.pref)
		return
	}
	for i, id := range l[o.user] {
		if id == o.pref {
			l[o.user] = append(l[o.user][:i], l[o.user][i+1:]...)
			return
		}
	}
}

// applySystem applies one write to a user's system, untimed.
func (rp *replayer) applySystem(systems []*contextpref.System) func(o op) error {
	return func(o op) error {
		p := rp.prefs[o.pref]
		if o.kind == opAdd {
			return systems[o.user].AddPreferences(p)
		}
		_, err := systems[o.user].RemovePreference(p)
		return err
	}
}

// replayRow feeds a stream's reads to read and its writes to write
// (untimed), then deletes what the stream added, so every row starts
// from the seed profile.
func (rp *replayer) replayRow(ops []op, read func(i int, o op) error, write func(o op) error) error {
	runtime.GC() // garbage of earlier rows is not this row's cost
	lv := live{}
	for i, o := range ops {
		if o.kind == opAdd || o.kind == opDelete {
			if err := write(o); err != nil {
				return err
			}
			lv.apply(o)
			continue
		}
		if err := read(i, o); err != nil {
			return err
		}
	}
	for u, ids := range lv {
		for _, id := range ids {
			if err := write(op{kind: opDelete, user: u, pref: id}); err != nil {
				return err
			}
		}
	}
	return nil
}

// call runs f, as a span of layer when the stream index has reached from.
func (rp *replayer) call(layer uint8, i, from int, f func() error) error {
	if i < from {
		return f()
	}
	var err error
	rp.tr.time(layer, i, func() { err = f() })
	return err
}

// systems builds one seeded System per user, as the directory would.
func (rp *replayer) systems() ([]*contextpref.System, error) {
	reg := contextpref.NewTelemetryRegistry()
	out := make([]*contextpref.System, len(rp.in.users))
	for u := range out {
		sys, err := contextpref.NewSystem(rp.in.env, rp.rel, rp.systemOptions(reg)...)
		if err != nil {
			return nil, err
		}
		if err := sys.AddPreferences(rp.in.prefs...); err != nil {
			return nil, err
		}
		out[u] = sys
	}
	return out, nil
}

// systemRows times the library layers below the HTTP shell: profile
// tree, query engine, query-tree cache, System and SafeSystem. The
// System and SafeSystem rows each start from fresh systems, so both see
// the same cache hits and misses.
func (rp *replayer) systemRows(res *layerResults) error {
	ctx := context.Background()
	systems, err := rp.systems()
	if err != nil {
		return err
	}
	n := len(systems)
	engines := make([]*query.Engine, n)
	caches := make([]*querytree.Cache, n)
	for u, sys := range systems {
		if engines[u], err = query.NewEngine(sys.Tree(), rp.rel, rp.metric, relation.CombineMax); err != nil {
			return err
		}
		if caches[u], err = querytree.New(rp.in.env, nil, cacheCap); err != nil {
			return err
		}
	}
	if err := rp.treeCounts(res, systems[0]); err != nil {
		return err
	}
	q := query.Contextual{TopK: queryTopK}
	full := query.Contextual{}
	st := func(o op) []string { return rp.in.states[o.state] }
	queries := func(layer uint8, f func(o op) error) func(i int, o op) error {
		return func(i int, o op) error {
			if o.kind != opQuery {
				return nil
			}
			return rp.call(layer, i, replayWarm, func() error { return f(o) })
		}
	}
	apply := rp.applySystem(systems)

	err = rp.replayRow(rp.main, queries(lyResolve, func(o op) error {
		_, _, _, err := systems[o.user].Tree().ResolveCtx(ctx, st(o), rp.metric)
		return err
	}), apply)
	if err != nil {
		return err
	}
	err = rp.replayRow(rp.resolve, func(i int, o op) error {
		return rp.call(lyResolveAll, i, 0, func() error {
			_, _, err := systems[o.user].Tree().ResolveAllCtx(ctx, st(o), rp.metric)
			return err
		})
	}, apply)
	if err != nil {
		return err
	}
	err = rp.replayRow(rp.main, queries(lyExecute, func(o op) error {
		_, err := engines[o.user].ExecuteCtx(ctx, q, st(o))
		return err
	}), apply)
	if err != nil {
		return err
	}
	// Cache.Get is timed; filling the cache on a miss is not. Writes
	// invalidate the whole cache, as System does.
	err = rp.replayRow(rp.main, func(i int, o op) error {
		if o.kind != opQuery {
			return nil
		}
		var hit bool
		err := rp.call(lyCacheGet, i, replayWarm, func() error {
			_, _, ok, err := caches[o.user].Get(st(o))
			hit = ok
			return err
		})
		if err != nil || hit {
			return err
		}
		r, err := engines[o.user].ExecuteCtx(ctx, full, st(o))
		if err != nil || !r.Contextual {
			return err
		}
		return caches[o.user].Put(st(o), r.Tuples, r.Resolutions[0])
	}, func(o op) error {
		caches[o.user].Invalidate()
		return apply(o)
	})
	if err != nil {
		return err
	}
	if err := rp.allocs(res, systems[0]); err != nil {
		return err
	}

	// System and SafeSystem run in lockstep on two fresh sets of
	// systems, alternating which goes first, so drift of the shared
	// machine lands on both rows alike. The hit ratio counts the timed
	// part of the System row.
	plain, err := rp.systems()
	if err != nil {
		return err
	}
	wrapped, err := rp.systems()
	if err != nil {
		return err
	}
	safes := make([]*contextpref.SafeSystem, n)
	for u, s := range wrapped {
		safes[u] = contextpref.Synchronized(s)
	}
	var hits, misses int
	snapped := false
	cacheStats := func(sign int) {
		for _, s := range plain {
			cs := s.CacheStats()
			hits += sign * cs.Hits
			misses += sign * cs.Misses
		}
	}
	applyPlain := rp.applySystem(plain)
	err = rp.replayRow(rp.main, func(i int, o op) error {
		if o.kind != opQuery {
			return nil
		}
		if i >= replayWarm && !snapped {
			snapped = true
			cacheStats(-1)
		}
		sysCall := func() error {
			return rp.call(lySysQuery, i, replayWarm, func() error {
				_, err := plain[o.user].QueryCtx(ctx, q, st(o))
				return err
			})
		}
		safeCall := func() error {
			return rp.call(lySafeQuery, i, replayWarm, func() error {
				_, err := safes[o.user].QueryCtx(ctx, q, st(o))
				return err
			})
		}
		if i%2 == 1 {
			sysCall, safeCall = safeCall, sysCall
		}
		if err := sysCall(); err != nil {
			return err
		}
		return safeCall()
	}, func(o op) error {
		if err := applyPlain(o); err != nil {
			return err
		}
		p := rp.prefs[o.pref]
		if o.kind == opAdd {
			return safes[o.user].AddPreferences(p)
		}
		_, err := safes[o.user].RemovePreference(p)
		return err
	})
	if err != nil {
		return err
	}
	cacheStats(1)
	if hits+misses > 0 {
		res.values["querytree.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return nil
}

// treeCounts records the paper's cost metric: mean cells Tree.ResolveCtx
// visits over the workload's state pool, each state once. The pool and
// the profile are fixed, so the count is identical on every run.
func (rp *replayer) treeCounts(res *layerResults, sys *contextpref.System) error {
	lo, hi := int32(0), rp.in.coldBase
	if rp.sp.name == "cold-resolve" {
		lo, hi = rp.in.coldBase, int32(len(rp.in.states))
	}
	cells := 0
	for id := lo; id < hi; id++ {
		_, n, _, err := sys.Tree().ResolveCtx(context.Background(), rp.in.states[id], rp.metric)
		if err != nil {
			return err
		}
		cells += n
	}
	res.values["profiletree.cells_per_resolve"] = float64(cells) / float64(hi-lo)
	return nil
}

// allocs counts heap allocations per Tree.ResolveCtx on the query
// stream, on this goroutine alone: nothing else runs in the process
// while it measures.
func (rp *replayer) allocs(res *layerResults, sys *contextpref.System) error {
	ctx := context.Background()
	var states [][]string
	for _, o := range rp.main[replayWarm:] {
		if o.kind == opQuery {
			states = append(states, rp.in.states[o.state])
		}
	}
	if len(states) == 0 {
		return fmt.Errorf("no queries in the replayed stream")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range states {
		if _, _, _, err := sys.Tree().ResolveCtx(ctx, s, rp.metric); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	res.values["profiletree.allocs_per_resolve"] = float64(after.Mallocs-before.Mallocs) / float64(len(states))
	return nil
}

// serviceRows times the serving layers: Directory.UserCtx and
// httpapi.Server.ServeHTTP, wired like cpserver (journaled store,
// health, tracer, telemetry, max-inflight, request timeout).
func (rp *replayer) serviceRows(res *layerResults) error {
	ctx := context.Background()
	reg := contextpref.NewTelemetryRegistry()
	d, err := rp.newDirectory(reg)
	if err != nil {
		return err
	}
	store := filepath.Join(rp.scratch, "inproc-store")
	jm := contextpref.NewJournalMetrics(reg)
	var health *contextpref.Health
	var healths []*contextpref.Health
	if rp.sp.shards <= 1 {
		j, _, err := journal.Open(store)
		if err != nil {
			return err
		}
		defer j.Close()
		j.SetMetrics(jm)
		health = contextpref.NewHealth()
		d.SetPersister(contextpref.NewJournalPersister(j))
		d.SetHealth(health)
	} else {
		for i := 0; i < rp.sp.shards; i++ {
			j, _, err := journal.Open(filepath.Join(store, journal.ShardDir(i)))
			if err != nil {
				return err
			}
			defer j.Close()
			j.SetMetrics(jm)
			h := contextpref.NewShardHealth(i)
			d.SetShardHealth(i, h)
			d.SetShardPersister(i, contextpref.NewJournalPersister(j))
			healths = append(healths, h)
		}
	}
	opts := []httpapi.ServerOption{
		httpapi.WithTelemetry(reg),
		httpapi.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		httpapi.WithSlowRequestThreshold(500 * time.Millisecond),
		httpapi.WithHealth(health),
		httpapi.WithTracer(tracing.New(tracing.Config{SlowTrace: 500 * time.Millisecond, Metrics: contextpref.NewTraceMetrics(reg)})),
		httpapi.WithMaxInflight(256),
		httpapi.WithMaxBodyBytes(1 << 20),
		httpapi.WithRequestTimeout(5 * time.Second),
	}
	if healths != nil {
		opts = append(opts, httpapi.WithShardHealth(healths))
	}
	api, err := httpapi.NewMultiUser(d, opts...)
	if err != nil {
		return err
	}
	for _, name := range rp.in.users {
		if _, err := d.UserCtx(ctx, name); err != nil {
			return err
		}
	}
	for i, o := range rp.main[replayWarm:] {
		if o.kind == opQuery || o.kind == opResolve {
			name := rp.in.users[o.user]
			err := rp.call(lyDirectory, i, 0, func() error {
				_, err := d.UserCtx(ctx, name)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	layerOf := [numOpKinds]uint8{opQuery: lyHTTPQuery, opResolve: lyHTTPResolve, opAdd: lyHTTPWrite, opDelete: lyHTTPWrite}
	// serve builds the request untimed and, when timed is set, records
	// ServeHTTP alone as a span.
	serve := func(o op, i int, timed bool) error {
		method, target, body := rp.in.request(o)
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		if timed {
			rp.tr.time(layerOf[o.kind], i, func() { api.ServeHTTP(rr, req) })
		} else {
			api.ServeHTTP(rr, req)
		}
		if rr.Code < 200 || rr.Code >= 300 {
			return fmt.Errorf("in-process %s %s answered %d: %s", method, target, rr.Code, clip(rr.Body.Bytes(), 200))
		}
		return nil
	}
	runtime.GC()
	for k, ops := range [][]op{rp.main, rp.moreResolve, rp.moreWrites} {
		from := 0
		if k == 0 {
			from = replayWarm
		}
		for i, o := range ops {
			if err := serve(o, i, i >= from); err != nil {
				return err
			}
		}
	}
	return rp.spanOverhead(res, func(o op) error { return serve(o, 0, false) })
}

// spanOverhead times blocks of ServeHTTP calls on the query stream with
// one clock pair around each whole block, recording a span per call
// inside the block (A) or not (B), alternating which arm runs a block
// first. An untimed pass over the block comes first, so both arms find
// the same cache contents. The result is the median over the blocks of
// A's extra wall time relative to B's, over overheadRounds passes of the
// stream.
func (rp *replayer) spanOverhead(res *layerResults, serve func(o op) error) error {
	var qs []op
	for _, o := range rp.main[replayWarm:] {
		if o.kind == opQuery {
			qs = append(qs, o)
		}
	}
	scratch := &tracer{origin: time.Now(), spans: make([]span, 0, overheadBlock)}
	var blocks [][]op
	for i := 0; i < len(qs); i += overheadBlock {
		blocks = append(blocks, qs[i:min(len(qs), i+overheadBlock)])
	}
	var ratios []float64
	for k := 0; k < overheadRounds*len(blocks); k++ {
		ops := blocks[k%len(blocks)]
		for _, o := range ops {
			if err := serve(o); err != nil {
				return err
			}
		}
		var a, b time.Duration
		armA := func() error {
			scratch.spans = scratch.spans[:0]
			var err error
			t0 := time.Now()
			for i, o := range ops {
				scratch.time(lyHTTPQuery, i, func() {
					if e := serve(o); e != nil && err == nil {
						err = e
					}
				})
			}
			a = time.Since(t0)
			return err
		}
		armB := func() error {
			t0 := time.Now()
			for _, o := range ops {
				if err := serve(o); err != nil {
					return err
				}
			}
			b = time.Since(t0)
			return nil
		}
		x, y := armA, armB
		if k%2 == 1 {
			x, y = armB, armA
		}
		if err := x(); err != nil {
			return err
		}
		if err := y(); err != nil {
			return err
		}
		ratios = append(ratios, (float64(a)-float64(b))/float64(b))
	}
	res.values["trace.overhead_pct"] = median(ratios) * 100
	return nil
}

// appendRow times journal.AppendCtx of one record at a time, each batch
// fsync'd, in a journal on the same disk as the server's store.
func (rp *replayer) appendRow(res *layerResults) error {
	j, _, err := journal.Open(filepath.Join(rp.scratch, "append-journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	ctx := context.Background()
	for i, o := range rp.writes[:min(len(rp.writes), replayWrites)] {
		r := journal.Record{Op: journal.OpAdd, User: rp.in.users[o.user], Line: rp.in.benchPrefs.line(o.pref)}
		if o.kind == opDelete {
			r.Op = journal.OpRemove
		}
		if err := rp.call(lyAppend, i, 0, func() error { return j.AppendCtx(ctx, r) }); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes the per-layer span summary and the first spans of
// every layer as JSON.
func (t *tracer) writeSpans(path string) error {
	type summary struct {
		Layer string  `json:"layer"`
		Calls int     `json:"calls"`
		Mean  float64 `json:"mean_us"`
		P50   float64 `json:"p50_us"`
		P99   float64 `json:"p99_us"`
	}
	type rawSpan struct {
		Layer string  `json:"layer"`
		Op    int32   `json:"op"`
		Start float64 `json:"start_us"`
		Dur   float64 `json:"dur_us"`
	}
	out := struct {
		Layers []summary `json:"layers"`
		Spans  []rawSpan `json:"first_spans"`
	}{}
	for l := uint8(0); l < numLayers; l++ {
		var durs []float64
		for _, s := range t.spans {
			if s.layer == l {
				durs = append(durs, float64(s.dur.Nanoseconds())/1e3)
				if len(durs) <= 64 {
					out.Spans = append(out.Spans, rawSpan{layerNames[l], s.op, float64(s.start.Nanoseconds()) / 1e3, float64(s.dur.Nanoseconds()) / 1e3})
				}
			}
		}
		if len(durs) == 0 {
			continue
		}
		sort.Float64s(durs)
		out.Layers = append(out.Layers, summary{layerNames[l], len(durs), t.meanUS(l), percentile(durs, 50), percentile(durs, 99)})
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
