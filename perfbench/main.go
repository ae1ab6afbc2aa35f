// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds it and cpserver), drives the real
// cpserver binary over loopback TCP with a closed loop of two clients,
// each on one keep-alive connection, checks every answer against the
// paper's sequential-scan baseline, and prints one JSON result line.
//
//	perfbench -root <checkout> -server <cpserver binary>
//	          --workload hot-query|cold-resolve|write-mix
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, which
// replays the same request streams in-process at each layer's public
// entry point. See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"contextpref/internal/preference"
)

type config struct {
	root, server string
	workload     string
	seed         int64
	seconds      int
	trace        bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.root, "root", ".", "checkout root; temp files go under <root>/.bench_build")
	flag.StringVar(&cfg.server, "server", "", "cpserver binary")
	flag.StringVar(&cfg.workload, "workload", "", "hot-query, cold-resolve or write-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: draws the request streams")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1

	// A signal kills the server and removes the temp dirs before exit.
	// Every other path exits through the cleanup below, never through
	// stop, so ctx is done only on a signal.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		cleanup()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by a signal")
		os.Exit(1)
	}()

	code := func() (code int) {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", r, debug.Stack())
				code = 2
			}
		}()
		if err := run(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}()
	cleanup()
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loopback is what the real-server part of a run measured.
type loopback struct {
	clients   []*client
	setup     []float64     // seconds per set-up
	restart   []float64     // seconds per restart
	window    time.Duration // the segments' summed length
	serverCPU float64       // server CPU seconds spent in the segments
	rss       []float64     // VmHWM in MiB of each server life that served a segment
	// counters sums each /metrics series' increase over the warm-ups
	// and segments; lives sums its value at the end of every server life
	// that served them, set-up included.
	counters  map[string]float64
	lives     map[string]float64
	storeCopy string // post-run store (traced runs)
}

func run(cfg config, out io.Writer) error {
	sp, err := workloadSpec(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", cfg.seconds)
	}
	if cfg.server == "" {
		return errors.New("-server is required")
	}
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	registerTemp(tmp)

	in, err := newInputs(sp.users)
	if err != nil {
		return err
	}
	orc, err := newOracle(in)
	if err != nil {
		return err
	}
	profile := filepath.Join(tmp, "profile.txt")
	var text strings.Builder
	for _, p := range in.prefs {
		text.WriteString(preference.Format(p))
		text.WriteByte('\n')
	}
	if err := os.WriteFile(profile, []byte(text.String()), 0o644); err != nil {
		return err
	}
	fsType := filesystem(tmp)
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%v store_fs=%s\n",
		sp.name, cfg.seed, cfg.seconds, cfg.trace, fsType)
	if fsType == "tmpfs" {
		fmt.Fprintln(out, "perfbench: WARNING: the checkout is on tmpfs, so fsync costs nothing")
	}

	lb, err := runLoopback(cfg, sp, in, tmp, profile)
	if err != nil {
		return err
	}
	problems, checked := orc.verify(lb.clients, len(in.users))
	attempted, failed := 0, 0
	for _, c := range lb.clients {
		for i := range c.recs {
			attempted++
			if !c.recs[i].ok() {
				failed++
			}
		}
	}
	fmt.Fprintf(out, "oracle: %d responses compared with the sequential-scan reference, %d problems\n", checked, len(problems))
	for _, p := range firstN(problems, 10) {
		fmt.Fprintln(out, "  MISMATCH", p)
	}

	e2e, load, samples := endToEnd(lb)
	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	shape := map[string]float64{
		"server.resolves_per_request": serverRatio(lb, "cp_resolve_total"),
		"server.query_hit_ratio":      queryHitRatio(lb),
		"probe_time_share":            probeTimeShare(lb, sp.users),
	}
	if cfg.trace {
		profileBytes := 0
		for _, c := range lb.clients {
			for _, t := range c.exports {
				profileBytes += len(t)
			}
		}
		rp, err := newReplayer(in, sp, cfg.seed, tmp)
		if err != nil {
			return err
		}
		lr, err := rp.run(lb.storeCopy, profileBytes)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		res.Metrics = perLayer(lb, lr, e2e)
		shape["querytree.hit_ratio"] = lr.values["querytree.hit_ratio"]
		if p := reportLayers(out, lr, e2e); len(p) > 0 {
			return fmt.Errorf("traced run: %d layer rows do not compose", len(p))
		}
		traces := filepath.Join(build, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			return err
		}
		if err := lr.tr.writeSpans(filepath.Join(traces, fmt.Sprintf("%s-seed%d.json", sp.name, cfg.seed))); err != nil {
			return err
		}
	}

	rec := runRecord(cfg, fsType, samples)
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "record: %s\n", b)
	b, err = json.Marshal(shape)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "shape: %s\n", b)
	if b, err = json.Marshal(load); err != nil {
		return err
	}
	fmt.Fprintf(out, "load: %s\n", b)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	if !res.Correct {
		return fmt.Errorf("%d answers differ from the reference", len(problems))
	}
	return nil
}

// serverArgs are cpserver's flags for the workload.
func serverArgs(sp *spec, profile, store string) []string {
	args := []string{"-multiuser", "-pois", fmt.Sprint(poiCount), "-seed", fmt.Sprint(poiSeed),
		"-metric", "jaccard", "-cache", fmt.Sprint(cacheCap), "-profile", profile, "-store", store}
	if sp.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(sp.shards))
	}
	return args
}

// A run cuts its timed window into equal segments. At every cut, and
// after the last segment, the server is SIGKILLed, one set-up is timed
// on a fresh scratch store, and the server is restarted on its own store
// restartsPerCut times; the last restart re-warms and serves the next
// segment. Set-ups and restarts thus sample the whole run, as the window
// does, so their medians follow the run and not one moment of it: on a
// shared VM a stall of a few seconds hit every set-up and restart when
// they ran back to back. A traced run takes one segment, its one set-up
// and one restart.
const (
	warmup         = time.Second
	rewarm         = 500 * time.Millisecond
	segments       = 6
	restartsPerCut = 2
)

// setUp starts a server on a fresh store and seeds every user, and
// returns the server and the seconds from exec until every user's first
// response arrived.
func setUp(cfg config, sp *spec, cs []*client, profile, store string) (*server, float64, error) {
	t0 := time.Now()
	srv, err := startServer(cfg.server, serverArgs(sp, profile, store))
	if err != nil {
		return nil, 0, err
	}
	point(cs, srv)
	each(cs, func(c *client) {
		for _, u := range c.gen.users() {
			c.send(op{kind: opSeed, user: u}, phaseSeed)
		}
	})
	d := time.Since(t0).Seconds()
	if srv.dead() {
		return nil, 0, srv.deathError()
	}
	return srv, d, nil
}

// point sends the clients' next requests to s.
func point(cs []*client, s *server) {
	closeAll(cs)
	for _, c := range cs {
		c.conn.addr = s.addr
	}
}

func runLoopback(cfg config, sp *spec, in *inputs, tmp, profile string) (*loopback, error) {
	// The clients spend most of their time waiting on the server; one
	// P for them leaves the server the other CPU instead of four
	// runnable threads contending for two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Collect the clients' garbage rarely, so their GC adds little to the
	// latencies they measure; the in-process replay afterwards runs at
	// the default, which keeps its peak memory down.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	lb := &loopback{counters: map[string]float64{}, lives: map[string]float64{}}
	start := time.Now()
	seed := maphash.MakeSeed()
	for c := 0; c < numClients; c++ {
		lb.clients = append(lb.clients, newClient(in, newGen(in, sp, c, cfg.seed), start, seed))
	}
	segs, restarts := segments, restartsPerCut
	if cfg.trace {
		segs, restarts = 1, 1
	}
	store := filepath.Join(tmp, "store")
	srv, d, err := setUp(cfg, sp, lb.clients, profile, store)
	if err != nil {
		return nil, err
	}
	lb.setup = append(lb.setup, d)
	warm := warmup
	segLen := time.Duration(cfg.seconds) * time.Second / time.Duration(segs)
	for seg := 0; seg < segs; seg++ {
		// One life of the server: warm-up, then a segment of the window.
		before, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		warmEnd := time.Now().Add(warm)
		each(lb.clients, func(c *client) { c.runFor(warmEnd, phaseWarmup) })
		warm = rewarm
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		w0 := time.Now()
		wEnd := w0.Add(segLen)
		each(lb.clients, func(c *client) { c.runFor(wEnd, phaseWindow) })
		lb.window += wEnd.Sub(w0)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		lb.serverCPU += cpu1 - cpu0
		if srv.dead() {
			return nil, srv.deathError()
		}
		after, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			lb.counters[k] += v - before[k]
			lb.lives[k] += v
		}
		rss, err := srv.peakRSSMB()
		if err != nil {
			return nil, err
		}
		lb.rss = append(lb.rss, rss)

		// Crash: every acknowledged write must survive.
		srv.kill()
		if cfg.trace {
			lb.storeCopy = filepath.Join(tmp, "store-copy")
			if err := copyTree(store, lb.storeCopy); err != nil {
				return nil, err
			}
		} else {
			scratch := filepath.Join(tmp, "scratch-store")
			s, d, err := setUp(cfg, sp, lb.clients, profile, scratch)
			if err != nil {
				return nil, err
			}
			s.kill()
			lb.setup = append(lb.setup, d)
			if err := os.RemoveAll(scratch); err != nil {
				return nil, err
			}
		}
		for i := 0; i < restarts; i++ {
			if i > 0 {
				srv.kill()
			}
			t0 := time.Now()
			if srv, err = startServer(cfg.server, serverArgs(sp, profile, store)); err != nil {
				return nil, fmt.Errorf("restart after SIGKILL: %w", err)
			}
			lb.restart = append(lb.restart, time.Since(t0).Seconds())
		}
		point(lb.clients, srv)
	}
	each(lb.clients, func(c *client) {
		for _, u := range c.gen.users() {
			c.send(op{kind: opExport, user: u}, phaseExport)
		}
	})
	if srv.dead() {
		return nil, srv.deathError()
	}
	closeAll(lb.clients)
	srv.kill()
	return lb, nil
}

// endToEnd computes the end-to-end metrics from the timed window, and
// the load figures printed beside them: throughput, the p99s and the
// write latencies, which vary too much from run to run on a shared VM
// to be held to a bound (see README.md).
func endToEnd(lb *loopback) (map[string]metric, map[string]float64, map[string]int) {
	m := map[string]metric{
		"setup_s":            {median(lb.setup), "s"},
		"restart_s":          {median(lb.restart), "s"},
		"server_peak_rss_mb": {median(lb.rss), "MB"},
	}
	kindName := [numOpKinds]string{opQuery: "query", opResolve: "resolve", opAdd: "write", opDelete: "write"}
	lat := map[string][]float64{}
	requests, succeeded := 0, 0
	for _, c := range lb.clients {
		for i := range c.recs {
			r := &c.recs[i]
			if r.phase != phaseWindow {
				continue
			}
			requests++
			if r.ok() {
				succeeded++
			}
			if name := kindName[r.kind]; name != "" {
				lat[name] = append(lat[name], float64(r.lat.Nanoseconds())/1e3)
			}
		}
	}
	m["server_cpu_us_per_request"] = metric{lb.serverCPU / float64(requests) * 1e6, "us"}
	load := map[string]float64{"throughput_rps": float64(succeeded) / lb.window.Seconds()}
	samples := map[string]int{"setup": len(lb.setup), "restart": len(lb.restart), "requests": requests}
	for _, name := range []string{"query", "resolve", "write"} {
		xs := lat[name]
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		p50, p99 := percentile(xs, 50), percentile(xs, 99)
		if name == "write" {
			load[name+"_p50_us"] = p50
		} else {
			m[name+"_p50_us"] = metric{p50, "us"}
		}
		load[name+"_p99_us"] = p99
		samples[name] = len(xs)
	}
	return m, load, samples
}

// serverRatio is a server counter's increase over the warm-ups and the
// window's segments, per request sent in them.
func serverRatio(lb *loopback, counter string) float64 {
	reqs := 0
	for _, c := range lb.clients {
		for i := range c.recs {
			if p := c.recs[i].phase; p == phaseWarmup || p == phaseWindow {
				reqs++
			}
		}
	}
	return lb.counters[counter] / float64(reqs)
}

// queryHitRatio derives the query-tree hit ratio of the warm-ups and the
// window's segments from the server's counters: a /query resolves its one state
// exactly when it misses the cache, and a /resolve resolves once.
func queryHitRatio(lb *loopback) float64 {
	queries, resolves := 0, 0
	for _, c := range lb.clients {
		for i := range c.recs {
			r := &c.recs[i]
			if (r.phase == phaseWarmup || r.phase == phaseWindow) && r.ok() {
				switch r.kind {
				case opQuery:
					queries++
				case opResolve:
					resolves++
				}
			}
		}
	}
	misses := lb.counters["cp_resolve_total"] - float64(resolves)
	return 1 - misses/float64(queries)
}

// probeTimeShare is the share of the clients' request time in the window
// spent on probe requests (users from index users on are probe users).
func probeTimeShare(lb *loopback, users int) float64 {
	var probe, all time.Duration
	for _, c := range lb.clients {
		for i := range c.recs {
			if r := &c.recs[i]; r.phase == phaseWindow {
				all += r.lat
				if int(r.user) >= users {
					probe += r.lat
				}
			}
		}
	}
	return float64(probe) / float64(all)
}

// perLayer assembles the traced run's metrics.
func perLayer(lb *loopback, lr *layerResults, e2e map[string]metric) map[string]metric {
	m := map[string]metric{}
	units := map[string]string{
		"profiletree.cells_per_resolve":  "count",
		"profiletree.allocs_per_resolve": "count",
		"querytree.hit_ratio":            "ratio",
		"journal.replay_s":               "s",
		"journal.bytes_per_user_byte":    "ratio",
		"trace.overhead_pct":             "%",
	}
	for k, v := range lr.values {
		u, ok := units[k]
		if !ok {
			u = "us"
		}
		m[k] = metric{v, u}
	}
	m["net.query_us"] = metric{e2e["query_p50_us"].Value - lr.values["httpapi.query_us"], "us"}
	m["server.resolves_per_request"] = metric{serverRatio(lb, "cp_resolve_total"), "count"}
	m["server.cells_per_request"] = metric{serverRatio(lb, "cp_resolve_cells_total"), "count"}
	m["server.fsync_mean_us"] = metric{lb.lives["cp_journal_fsync_seconds_sum"] / lb.lives["cp_journal_fsync_seconds_count"] * 1e6, "us"}
	return m
}

// selfTolerance is how far below zero a layer's self time may come out,
// as a share of the httpapi.query_us row, before the traced run fails
// for rows that do not compose. It is the largest end-to-end bound.
const selfTolerance = 0.25

// reportLayers prints the layer table with self times and returns the
// rows that do not compose.
func reportLayers(out io.Writer, lr *layerResults, e2e map[string]metric) []string {
	self := selfTimes(lr.rows)
	fmt.Fprintln(out, "layers (mean µs per call; self = row minus the weighted rows it calls):")
	for _, r := range lr.rows {
		fmt.Fprintf(out, "  %-26s total %10.3f  self %10.3f\n", r.name, r.total, self[r.name])
	}
	fmt.Fprintf(out, "  net (loopback query p50 %.1f µs − httpapi.query_us) = %.1f µs\n",
		e2e["query_p50_us"].Value, e2e["query_p50_us"].Value-lr.values["httpapi.query_us"])
	problems := composeProblems(lr.rows, "httpapi.query_us", selfTolerance)
	for _, p := range problems {
		fmt.Fprintln(out, "  NOT COMPOSING", p)
	}
	return problems
}

// runRecord describes the machine and the run.
func runRecord(cfg config, fsType string, samples map[string]int) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"kernel":     kernel,
		"store_fs":   fsType,
		"clients":    numClients,
		// The benchmark's clients run on one P; the server keeps its default.
		"client_gomaxprocs": 1,
		"samples":           samples,
	}
}

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !fi.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
