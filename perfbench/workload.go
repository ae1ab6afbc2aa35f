package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/dataset"
	"contextpref/internal/preference"
)

// Fixed inputs. The profile, the POI relation and the state pools do not
// depend on the workload seed, so per-run counts (cells per resolve)
// compare across seeds; the seed draws the request stream.
const (
	profileSeed   = 2007 // dataset.RealProfile seed
	poiCount      = 300  // cpserver -pois
	poiSeed       = 7    // cpserver -seed
	cacheCap      = 64   // cpserver -cache
	hotStates     = 32   // exact stored states per user (hot mix)
	coldStates    = 4096 // mixed-level states shared by all users
	coldUpperProb = 0.3
	hotZipfS      = 1.2
	numClients    = 2
	// probeEvery: every probeEvery-th request of a client is a probe on
	// the client's own probe user (see spec). The shape line reports the
	// share of the window's request time the probes take.
	probeEvery = 20
	queryText  = "top 10"
	queryTopK  = 10
)

// Operation kinds.
const (
	opQuery uint8 = iota
	opResolve
	opAdd
	opDelete
	opSeed   // GET /stats on first access: creates and seeds the user
	opExport // GET /preferences after restart: durability check
	numOpKinds
)

var opNames = [numOpKinds]string{"query", "resolve", "add", "delete", "seed", "export"}

// op is one generated request.
type op struct {
	kind  uint8
	user  int32 // user index
	state int32 // global state id (reads)
	pref  int32 // global bench-preference id (writes)
}

// spec describes one workload.
//
// Probes. Every run reports both read latencies, so a mix without
// resolves is probed: every probeEvery-th request of a client resolves
// one of its probe user's hot states. Each client owns one probe user of
// its own, outside the workload's users, so probes never invalidate a
// workload user's cache and every user's requests still arrive in one
// order. The traced run also draws its write rows from probeWrite.
type spec struct {
	name   string
	users  int // workload users; probe users come on top
	shards int
	// mix draws the operation of a non-probe turn.
	mix          func(g *gen) op
	probeResolve bool
}

func workloadSpec(name string) (*spec, error) {
	switch name {
	case "hot-query":
		return &spec{name: name, users: 16, shards: 1, mix: (*gen).hotQuery, probeResolve: true}, nil
	case "cold-resolve":
		return &spec{name: name, users: 16, shards: 1, mix: (*gen).coldMix}, nil
	case "write-mix":
		return &spec{name: name, users: 256, shards: 4, mix: (*gen).writeMix, probeResolve: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want hot-query, cold-resolve or write-mix)", name)
}

// inputs are the fixed data every component of a run shares.
type inputs struct {
	env    *ctxmodel.Environment
	prefs  []preference.Preference // the real profile every user is seeded with
	states []ctxmodel.State        // global state table: hot pools, then the cold pool
	users  []string
	// User u's hot pool is states[u*hotStates : (u+1)*hotStates]; the
	// cold pool starts at coldBase.
	coldBase int32
	// queryBody[id] and stateParam[id] pre-render the request payloads.
	queryBody  [][]byte
	stateParam []string
	// benchPrefs holds every write preference generated so far.
	benchPrefs *prefTable
}

// newInputs builds the inputs of a workload with the given number of
// workload users; the clients' probe users follow them.
func newInputs(users int) (*inputs, error) {
	env, prefs, err := dataset.RealProfile(profileSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{env: env, prefs: prefs}
	for u := 0; u < users+numClients; u++ {
		name := fmt.Sprintf("u%03d", u)
		if u >= users {
			name = fmt.Sprintf("probe%d", u-users)
		}
		in.users = append(in.users, name)
		pool, err := distinctStates(env, prefs, hotStates, int64(1000+u))
		if err != nil {
			return nil, err
		}
		in.states = append(in.states, pool...)
	}
	in.coldBase = int32(len(in.states))
	cold, err := dataset.RandomQueries(env, coldStates, 4242, coldUpperProb)
	if err != nil {
		return nil, err
	}
	in.states = append(in.states, cold...)
	for _, s := range in.states {
		b, err := json.Marshal(struct {
			Query   string   `json:"query"`
			Current []string `json:"current"`
		}{queryText, s})
		if err != nil {
			return nil, err
		}
		in.queryBody = append(in.queryBody, b)
		in.stateParam = append(in.stateParam, url.QueryEscape(strings.Join(s, ",")))
	}
	in.benchPrefs = &prefTable{}
	return in, nil
}

// distinctStates draws n distinct exact stored states of the profile.
func distinctStates(env *ctxmodel.Environment, prefs []preference.Preference, n int, seed int64) ([]ctxmodel.State, error) {
	cand, err := dataset.QueriesFromPrefs(env, prefs, 16*n, seed)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []ctxmodel.State
	for _, s := range cand {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			out = append(out, s)
			if len(out) == n {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("profile has fewer than %d distinct states", n)
}

func (in *inputs) hotState(user int32, k int) int32 { return user*hotStates + int32(k) }

// prefTable holds the generated write preferences, one list per
// client: only the owning client's generator appends to its list, and
// the oracle reads them all after the clients have stopped.
type prefTable struct {
	lines [numClients][]string
}

// id packs a client's k-th preference into one global id.
func prefID(client, k int) int32 { return int32(k*numClients + client) }

func (t *prefTable) line(id int32) string {
	return t.lines[int(id)%numClients][int(id)/numClients]
}

// gen draws one client's request stream. Every client owns the
// workload users whose index is congruent to its own number modulo
// numClients, plus one probe user, so each user's requests arrive in one
// deterministic order.
type gen struct {
	in     *inputs
	sp     *spec
	client int
	owned  []int32
	probe  int32
	r      *rand.Rand
	zipf   *rand.Zipf
	// live lists, per owned user, the bench preferences this stream has
	// added and not yet deleted, oldest first.
	live  map[int32][]int32
	turns int
}

func newGen(in *inputs, sp *spec, client int, seed int64) *gen {
	r := rand.New(rand.NewSource(seed*7919 + int64(client)))
	g := &gen{in: in, sp: sp, client: client, probe: int32(sp.users + client), r: r, live: map[int32][]int32{}}
	g.zipf = rand.NewZipf(r, hotZipfS, 1, hotStates-1)
	for u := client; u < sp.users; u += numClients {
		g.owned = append(g.owned, int32(u))
	}
	return g
}

// users lists every user the client owns, its probe user last.
func (g *gen) users() []int32 { return append(append([]int32(nil), g.owned...), g.probe) }

// next draws the client's next request.
func (g *gen) next() op {
	g.turns++
	if g.turns%probeEvery != 0 || !g.sp.probeResolve {
		return g.sp.mix(g)
	}
	return g.probeResolve()
}

func (g *gen) user() int32 { return g.owned[g.r.Intn(len(g.owned))] }

func (g *gen) hotQuery() op {
	u := g.user()
	return op{kind: opQuery, user: u, state: g.in.hotState(u, int(g.zipf.Uint64()))}
}

func (g *gen) coldMix() op {
	u := g.user()
	kind := opQuery
	if g.r.Intn(2) == 0 {
		kind = opResolve
	}
	return op{kind: kind, user: u, state: g.in.coldBase + int32(g.r.Intn(coldStates))}
}

// writeMix is 80% hot queries and 20% writes. A write deletes the
// user's oldest bench preference when it has two, or with even odds
// when it has one, and adds a fresh one otherwise, so every profile
// stays within two preferences of its seed size.
func (g *gen) writeMix() op {
	if g.r.Intn(5) != 0 {
		return g.hotQuery()
	}
	u := g.user()
	live := g.live[u]
	if len(live) >= 2 || (len(live) == 1 && g.r.Intn(2) == 0) {
		return g.del(u)
	}
	return g.add(u)
}

func (g *gen) add(u int32) op {
	lines := &g.in.benchPrefs.lines[g.client]
	k := len(*lines)
	*lines = append(*lines, fmt.Sprintf("[time = t%02d; location = ath_r%02d] => name = bench_%d_%d : 0.5",
		1+g.r.Intn(17), 1+g.r.Intn(60), g.client, k))
	id := prefID(g.client, k)
	g.live[u] = append(g.live[u], id)
	return op{kind: opAdd, user: u, pref: id}
}

func (g *gen) del(u int32) op {
	id := g.live[u][0]
	g.live[u] = g.live[u][1:]
	return op{kind: opDelete, user: u, pref: id}
}

// probeResolve resolves one of the probe user's hot states.
func (g *gen) probeResolve() op {
	return op{kind: opResolve, user: g.probe, state: g.in.hotState(g.probe, int(g.zipf.Uint64()))}
}

// probeWrite adds a preference to the probe user, or deletes the one the
// previous probe added, so the profile ends where it began.
func (g *gen) probeWrite() op {
	if len(g.live[g.probe]) > 0 {
		return g.del(g.probe)
	}
	return g.add(g.probe)
}

// target renders the request line's method, target and body.
func (in *inputs) request(o op) (method, target string, body []byte) {
	user := in.users[o.user]
	switch o.kind {
	case opQuery:
		return "POST", "/query?user=" + user, in.queryBody[o.state]
	case opResolve:
		return "GET", "/resolve?user=" + user + "&state=" + in.stateParam[o.state], nil
	case opAdd:
		return "POST", "/preferences?user=" + user, []byte(in.benchPrefs.line(o.pref))
	case opDelete:
		return "DELETE", "/preferences?user=" + user, []byte(in.benchPrefs.line(o.pref))
	case opSeed:
		return "GET", "/stats?user=" + user, nil
	case opExport:
		return "GET", "/preferences?user=" + user, nil
	}
	panic(fmt.Sprintf("unknown op kind %d", o.kind))
}
