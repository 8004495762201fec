package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/coopt"
	"repro/internal/itc02"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/runctl"
	"repro/internal/srv"
	"repro/internal/store"
)

// serve_hot calls srv.Server.Handler() in-process, so loopback TCP stays
// out of the numbers, from a closed loop of serveClients clients:
// each sends its next request when the previous one returns. Request i of
// a run is a pure function of (seed, i), and client c sends requests c,
// c+serveClients, c+2·serveClients, ... in turn, so the stream depends only
// on the seed. Each client has the whole mix to itself: a shared counter
// would let the clients fall into step on the slow requests, differently
// in each run.
//
// serve_hot is the read path: a warmed store answers every request, so a
// request is decode → key derivation → store.Get with frame verify →
// encode, and the queue and engines stay idle.
//
// The write path gets no end-to-end workload of its own: its latency rests
// on fsync, which on a shared disk varied by up to 30% between runs, too
// much to compare commits by. serve_hot's traced run measures its layers in
// a phase of its own instead (see writePath).
//
// Every request sent is valid. A tdv request whose tmono is below the
// largest core's pattern count currently fails with a 500 (a recovered
// panic, an open correctness defect of the server); the stream never sends
// tmono at all, so that defect is neither triggered nor hidden here.

const (
	serveClients = 2
	serveWorkers = 2
	// coldStoreBytes is the write path's store byte budget, far below what
	// one phase writes, so puts keep evicting.
	coldStoreBytes = 512 << 10
	// zipfS is the hot catalog's Zipf exponent, cmd/socload's default.
	zipfS = 1.3
)

// call is one HTTP request of the load.
type call struct{ kind, path, body string }

// reply is what the handler returned.
type reply struct {
	code  int
	cache string
	body  []byte
}

func post(h http.Handler, c call) reply {
	req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{code: rec.Code, cache: rec.Header().Get("X-Cache"), body: rec.Body.Bytes()}
}

// mix64 is the SplitMix64 finalizer: a cheap, well-mixed pure function of
// its input, so request i's parameters need no shared generator state.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw is request i's pseudo-random word under seed.
func draw(seed, i int64) uint64 { return mix64(mix64(uint64(seed)) + uint64(i)) }

// socSource is the serialized profile of a built-in SOC.
func socSource(name string) (string, error) {
	s, err := itc02.SOCByName(name)
	if err != nil {
		return "", err
	}
	return itc02.SOCString(s), nil
}

// --- serve_hot ------------------------------------------------------------

// tinyAnd and tinyMux are cmd/socload's small inline netlists: the
// short-job end of the ATPG requests.
const tinyAnd = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
const tinyMux = "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nns = NOT(s)\nta = AND(a, ns)\ntb = AND(b, s)\ny = OR(ta, tb)\n"

// hotCatalog is the read-path request mix, with a name for each entry: cmd/socload's
// catalog, in its hot-first order, so the cheap TDV builtins dominate and
// the s713 stand-in, whose key derivation regenerates the netlist, is the
// rare tail. Its lint entry lints d695's .soc profile instead of a .bench
// netlist, so the mix covers SOC lint, the lint the profile toolchain runs.
func hotCatalog() ([]call, []string, error) {
	d695, err := socSource("d695")
	if err != nil {
		return nil, nil, err
	}
	entries := []struct {
		name string
		c    call
	}{
		{"tdv/d695", call{"tdv", "/v1/tdv", `{"builtin":"d695"}`}},
		{"lint/soc-d695", call{"lint", "/v1/lint", mustJSON(map[string]any{"soc": d695})}},
		{"tdv/g1023", call{"tdv", "/v1/tdv", `{"builtin":"g1023"}`}},
		{"atpg/tiny-and", call{"atpg", "/v1/atpg", mustJSON(map[string]any{"bench": tinyAnd})}},
		{"tdv/p22810", call{"tdv", "/v1/tdv", `{"builtin":"p22810"}`}},
		{"atpg/tiny-mux", call{"atpg", "/v1/atpg", mustJSON(map[string]any{"bench": tinyMux})}},
		{"schedule/d695", call{"schedule", "/v1/schedule", `{"builtin":"d695","tam":32}`}},
		{"tdv/p93791", call{"tdv", "/v1/tdv", `{"builtin":"p93791"}`}},
		{"schedule/g1023", call{"schedule", "/v1/schedule", `{"builtin":"g1023","tam":24}`}},
		{"atpg/s713", call{"atpg", "/v1/atpg", `{"standin":"s713"}`}},
	}
	cat := make([]call, len(entries))
	names := make([]string, len(entries))
	for k, e := range entries {
		cat[k], names[k] = e.c, e.name
	}
	return cat, names, nil
}

// hexSum is the digest a catalog response is pinned by.
func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// hotIndex is the catalog entry of request i: a Zipf draw from seed and i.
func hotIndex(cdf []float64, seed, i int64) int {
	u := float64(draw(seed, i)>>11) / (1 << 53)
	k := sort.SearchFloat64s(cdf, u)
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	return k
}

// server is one in-process serving stack.
type server struct {
	srv   *srv.Server
	h     http.Handler
	store *store.Store
}

// startServer opens a store under dir (scrubbing it, as socd does at
// start-up) and starts a server on it; journal enables the job journal.
func startServer(dir string, maxBytes int64, journal bool) (*server, error) {
	col := obs.New(obs.NewRegistry(), nil)
	st, err := store.Open(filepath.Join(dir, "cache"), maxBytes, col)
	if err != nil {
		return nil, err
	}
	if _, corrupt := st.Scrub(); corrupt != 0 {
		return nil, fmt.Errorf("scrub found %d corrupt artifacts in a fresh store", corrupt)
	}
	cfg := srv.Config{Workers: serveWorkers, Store: st, Col: col}
	if journal {
		cfg.JournalPath = filepath.Join(dir, "journal.jsonl")
	}
	s := srv.New(cfg)
	return &server{srv: s, h: s.Handler(), store: st}, nil
}

// metricsz reads the server's /metricsz snapshot through its handler.
func (s *server) metricsz() (obs.Snapshot, error) {
	var snap obs.Snapshot
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	if rec.Code != http.StatusOK {
		return snap, fmt.Errorf("/metricsz: status %d", rec.Code)
	}
	err := json.Unmarshal(rec.Body.Bytes(), &snap)
	return snap, err
}

// load runs the closed loop for seconds and hands
// every completed request to done, with its latency in ms. gen builds
// request i. With a tracer, each request is a span.
func load(h http.Handler, seconds float64, gen func(int64) call, done func(i int64, c call, rep reply, ms float64), tr *tracer) {
	start := now()
	_, _ = par.ForEach(context.Background(), serveClients, serveClients, func(c int) error {
		for i := int64(c); since(start) < seconds; i += serveClients {
			cl := gen(i)
			var id int
			if tr != nil {
				id = tr.start("srv.request."+cl.kind, 0, int(i))
			}
			t0 := now()
			rep := post(h, cl)
			ms := since(t0) * 1e3
			if tr != nil {
				tr.end(id)
			}
			done(i, cl, rep, ms)
		}
		return nil
	})
}

// sliceRequests is the number of consecutive completions in one slice of
// a serving window: enough that its p99 has ten samples beyond it.
const sliceRequests = 1000

// meter cuts a serving window into slices as its requests complete: the
// n-th completion belongs to slice n/sliceRequests. It holds only the open
// slice's latencies, so the benchmark's memory does not grow with the
// number of requests, and peak_rss_mb measures the server rather than a
// log whose size follows throughput.
type meter struct {
	mu       sync.Mutex
	start    time.Time
	attempts int
	failed   int
	open     []float64 // latencies of the open slice, ms
	lastEnd  float64   // completion time of the last closed slice, s
	slices   []slice
	kindMS   map[string]float64 // total latency per kind
	kindN    map[string]int
}

func newMeter() *meter {
	return &meter{start: now(), open: make([]float64, 0, sliceRequests), kindMS: map[string]float64{}, kindN: map[string]int{}}
}

// add records one completed request.
func (m *meter) add(kind string, ms float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempts++
	if !ok {
		m.failed++
	}
	m.kindMS[kind] += ms
	m.kindN[kind]++
	if m.open = append(m.open, ms); len(m.open) == sliceRequests {
		at := since(m.start)
		m.slices = append(m.slices, newSlice(at-m.lastEnd, m.open))
		m.lastEnd = at
		m.open = m.open[:0]
	}
}

// meanMS is the mean latency of kind's requests, or of all with kind "".
func (m *meter) meanMS(kind string) float64 {
	var sum, n float64
	for k, ms := range m.kindMS {
		if kind == "" || k == kind {
			sum += ms
			n += float64(m.kindN[k])
		}
	}
	return ratio(sum, n)
}

// account adds a window's requests to the run: attempts, failures, and
// the closed slices. The open slice is dropped unless no slice closed.
func (r *run) account(m *meter) {
	r.attempted += m.attempts
	r.failed += m.failed
	if len(m.slices) == 0 && len(m.open) > 0 {
		m.slices = append(m.slices, newSlice(since(m.start), m.open))
	}
	r.slices = append(r.slices, m.slices...)
}

// warm sends c cold and then warm, and returns the bytes if both are 200,
// the first a miss and the second a hit, and the bodies byte-identical.
func warm(h http.Handler, c call) ([]byte, error) {
	cold := post(h, c)
	hot := post(h, c)
	switch {
	case cold.code != http.StatusOK || hot.code != http.StatusOK:
		return nil, fmt.Errorf("%s %s: status %d then %d: %s", c.path, c.body[:min(len(c.body), 60)], cold.code, hot.code, cold.body)
	case cold.cache != "miss" || hot.cache != "hit":
		return nil, fmt.Errorf("%s: X-Cache %q then %q, want miss then hit", c.path, cold.cache, hot.cache)
	case !bytes.Equal(cold.body, hot.body):
		return nil, fmt.Errorf("%s: warm response differs from cold", c.path)
	}
	return cold.body, nil
}

// setupServers runs serve_hot's set-up setupRepeats times, each on a fresh
// unbounded store without a journal, and keeps the last server; the
// earlier ones are drained.
func (r *run) setupServers(prepare func(*server) error) (*server, error) {
	var s *server
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			s.srv.Drain()
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", k))
		err := r.setup(func() error {
			var err error
			if s, err = startServer(dir, 0, false); err != nil {
				return err
			}
			return prepare(s)
		})
		if err != nil {
			if s != nil {
				s.srv.Drain()
			}
			return nil, err
		}
	}
	return s, nil
}

func serveHot(r *run) error {
	cat, names, err := hotCatalog()
	if err != nil {
		return err
	}
	baseline := make([][]byte, len(cat))
	s, err := r.setupServers(func(s *server) error {
		for k, c := range cat {
			b, err := warm(s.h, c)
			if err != nil {
				return err
			}
			baseline[k] = b
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer s.srv.Drain()
	// Each entry's bytes must also be the pinned ones; a request for an
	// entry whose bytes are not counts as failed.
	pinned := make([]bool, len(cat))
	for k := range cat {
		pinned[k] = r.check(names[k], hexSum(baseline[k]))
	}
	cdf := zipfCDF(len(cat), zipfS)
	gen := func(i int64) call { return cat[hotIndex(cdf, r.seed, i)] }
	check := func(i int64, rep reply) bool {
		k := hotIndex(cdf, r.seed, i)
		return pinned[k] && rep.code == http.StatusOK && rep.cache == "hit" && bytes.Equal(rep.body, baseline[k])
	}
	measure := func(m *meter) func(int64, call, reply, float64) {
		return func(i int64, c call, rep reply, ms float64) { m.add(c.kind, ms, check(i, rep)) }
	}
	if !r.trace {
		var m *meter
		r.window(func() {
			m = newMeter()
			load(s.h, r.seconds, gen, measure(m), nil)
		})
		r.account(m)
		return nil
	}

	// Traced: a third untraced as the overhead baseline, a third traced,
	// and a third on the write path.
	plain := newMeter()
	load(s.h, r.seconds/3, gen, measure(plain), nil)
	before, err := s.metricsz()
	if err != nil {
		return err
	}
	var traced *meter
	r.window(func() {
		traced = newMeter()
		load(s.h, r.seconds/3, gen, measure(traced), r.tr)
	})
	after, err := s.metricsz()
	if err != nil {
		return err
	}
	r.account(plain)
	r.account(traced)
	for _, kind := range []string{"tdv", "schedule", "lint", "atpg"} {
		r.layer("srv.hit_ms."+kind, traced.meanMS(kind))
	}
	if err := r.probeKeys(s, cat, cdf); err != nil {
		return err
	}
	hits := float64(after.Counters["store.hits"] - before.Counters["store.hits"])
	misses := float64(after.Counters["store.misses"] - before.Counters["store.misses"])
	r.layer("store.hit_ratio", ratio(hits, hits+misses))
	r.layer("trace.overhead_pct", (traced.meanMS("")/plain.meanMS("")-1)*100)
	r.gcLayers(float64(traced.attempts))
	return r.writePath(r.seconds/3, cat, names)
}

// keyOf derives a catalog request's content address through the same
// public functions the handlers call.
func keyOf(c call) (string, error) {
	var req struct {
		Builtin string `json:"builtin"`
		TAM     int    `json:"tam"`
		SOC     string `json:"soc"`
		Bench   string `json:"bench"`
		Standin string `json:"standin"`
	}
	if err := json.Unmarshal([]byte(c.body), &req); err != nil {
		return "", err
	}
	switch c.kind {
	case "tdv", "schedule":
		s, err := itc02.SOCByName(req.Builtin)
		if err != nil {
			return "", err
		}
		canon := []byte(itc02.SOCString(s))
		if c.kind == "tdv" {
			return store.Key("tdv", canon, "v1"), nil
		}
		return store.Key("schedule", canon, coopt.Options{TAMWidth: req.TAM}.OptionsHash()), nil
	case "lint":
		return store.Key("lint", []byte(req.SOC), "soc"), nil
	case "atpg":
		c, err := atpgCircuit(req.Bench, req.Standin)
		if err != nil {
			return "", err
		}
		opts := atpg.DefaultOptions()
		opts.Workers = 1 // the server's per-job default
		return store.Key("atpg", []byte(netlist.BenchString(c)), atpg.OptionsHash(c, atpg.NumFaultsFor(c), opts)), nil
	}
	return "", fmt.Errorf("unknown kind %q", c.kind)
}

// atpgCircuit is an ATPG request's circuit: its inline .bench source, or
// the stand-in it names.
func atpgCircuit(bench, standin string) (*netlist.Circuit, error) {
	if bench != "" {
		return netlist.ParseBenchString("request.bench", bench)
	}
	prof, ok := bench89.ProfileByName(standin)
	if !ok {
		return nil, fmt.Errorf("unknown stand-in %q", standin)
	}
	return bench89.Generate(prof)
}

// probeKeys times key derivation on every catalog entry and store.Get on
// its key, as spans, and checks each derived key is the one the server
// stored the entry under. srv.key_ms.<kind> is the mean over that kind's
// entries of each entry's median, weighted by how often the Zipf draw
// picks the entry: a request of that kind's expected key derivation time.
func (r *run) probeKeys(s *server, cat []call, cdf []float64) error {
	const rounds = 20
	entryMS := make([][]float64, len(cat))
	var getMS []float64
	for round := 0; round < rounds; round++ {
		for k, c := range cat {
			op := round*len(cat) + k + 1
			id := r.tr.start("srv.key."+c.kind, 0, op)
			t0 := now()
			key, err := keyOf(c)
			entryMS[k] = append(entryMS[k], since(t0)*1e3)
			r.tr.end(id)
			if err != nil {
				return err
			}
			id = r.tr.start("store.get", 0, op)
			t0 = now()
			_, ok := s.store.Get(key)
			getMS = append(getMS, since(t0)*1e3)
			r.tr.end(id)
			if !ok {
				return fmt.Errorf("derived key of %s %s is not in the store", c.kind, c.path)
			}
		}
	}
	weighted, weight := map[string]float64{}, map[string]float64{}
	for k, c := range cat {
		p := cdf[k]
		if k > 0 {
			p -= cdf[k-1]
		}
		weighted[c.kind] += p * percentile(entryMS[k], 0.5)
		weight[c.kind] += p
	}
	for kind := range weight {
		r.layer("srv.key_ms."+kind, weighted[kind]/weight[kind])
	}
	r.layer("store.get_ms", percentile(getMS, 0.5))
	return nil
}

// --- write path -----------------------------------------------------------

// coldStream builds the write path's requests: the hot catalog's entries
// in turn, each with a new content address. A tdv or schedule builtin
// becomes its SOC profile under a request-unique name, a lint source gains
// a comment line, and an ATPG request gets the request's number as its
// random-phase seed. Each client steps through the whole catalog, so every
// ten requests are the catalog's kinds: 4 tdv, 2 schedule, 1 lint and 3
// ATPG (the two small netlists and s713). Only the names depend on the
// seed, so every seed does the same work.
type coldStream struct {
	tag     uint64 // a seed-drawn word in every request's new name or comment
	entries []coldEntry
}

// coldEntry is a catalog entry's input, resolved to what its variants change.
type coldEntry struct {
	kind           string
	soc            string // tdv, schedule and lint: the serialized SOC profile
	tam            int
	bench, standin string
}

func newColdStream(seed int64, cat []call) (*coldStream, error) {
	cs := &coldStream{tag: draw(seed, 0)}
	for _, c := range cat {
		var req struct {
			Builtin, SOC, Bench, Standin string
			TAM                          int
		}
		if err := json.Unmarshal([]byte(c.body), &req); err != nil {
			return nil, err
		}
		e := coldEntry{kind: c.kind, soc: req.SOC, tam: req.TAM, bench: req.Bench, standin: req.Standin}
		if req.Builtin != "" {
			var err error
			if e.soc, err = socSource(req.Builtin); err != nil {
				return nil, err
			}
		}
		cs.entries = append(cs.entries, e)
	}
	return cs, nil
}

// renamed is a SOC profile under a request-unique name.
func (cs *coldStream) renamed(src string, i int64) string {
	first, rest, _ := strings.Cut(src, "\n")
	return fmt.Sprintf("%s-%x-r%d\n%s", first, cs.tag, i, rest)
}

// call builds request i, its client's request number i/serveClients
// picking the catalog entry.
func (cs *coldStream) call(i int64) call {
	return cs.variant(int(i/serveClients%int64(len(cs.entries))), i)
}

// variant is catalog entry k made unique by the request number i.
func (cs *coldStream) variant(k int, i int64) call {
	e := cs.entries[k]
	switch e.kind {
	case "tdv":
		return call{"tdv", "/v1/tdv", mustJSON(map[string]any{"soc": cs.renamed(e.soc, i)})}
	case "schedule":
		return call{"schedule", "/v1/schedule", mustJSON(map[string]any{"soc": cs.renamed(e.soc, i), "tam": e.tam})}
	case "lint":
		return call{"lint", "/v1/lint", mustJSON(map[string]any{"soc": fmt.Sprintf("%s# request %x-%d\n", e.soc, cs.tag, i)})}
	default:
		req := map[string]any{"options": map[string]any{"seed": i}}
		if e.bench != "" {
			req["bench"] = e.bench
		} else {
			req["standin"] = e.standin
		}
		return call{"atpg", "/v1/atpg", mustJSON(req)}
	}
}

func mustJSON(v map[string]any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and numbers always encode
	}
	return string(b)
}

// expected computes request i's response bytes directly through the
// engines' public functions, for the checks made after the window. A lint
// source differs from its SOC's profile only by a trailing comment, so its
// report must be the profile's own, taken from lintBase.
func (cs *coldStream) expected(c call, lintBase map[string][]byte) ([]byte, error) {
	var req struct {
		SOC     string `json:"soc"`
		TAM     int    `json:"tam"`
		Bench   string `json:"bench"`
		Standin string `json:"standin"`
		Options struct {
			Seed int64 `json:"seed"`
		} `json:"options"`
	}
	if err := json.Unmarshal([]byte(c.body), &req); err != nil {
		return nil, err
	}
	switch c.kind {
	case "tdv", "schedule":
		s, err := itc02.ParseSOCString(req.SOC)
		if err != nil {
			return nil, err
		}
		if c.kind == "schedule" {
			sch, err := coopt.Optimize(s, coopt.Options{TAMWidth: req.TAM})
			if err != nil {
				return nil, err
			}
			return sch.Encode()
		}
		b, err := json.Marshal(s.Analyze())
		return append(b, '\n'), err
	case "lint":
		base, _, _ := strings.Cut(req.SOC, "# request")
		b, ok := lintBase[base]
		if !ok {
			return nil, fmt.Errorf("no lint baseline for the request's source")
		}
		return b, nil
	default:
		circ, err := atpgCircuit(req.Bench, req.Standin)
		if err != nil {
			return nil, err
		}
		opts := atpg.DefaultOptions()
		opts.Workers = 1
		opts.Seed = req.Options.Seed
		res, err := atpg.GenerateContext(context.Background(), circ, opts)
		if err != nil {
			return nil, err
		}
		return atpg.EncodeSummary(res.Summary(circ.Name))
	}
}

// writePath measures the write path for the traced run of serve_hot: a
// closed loop of requests that each carry a new content address, on a
// fresh server with the job journal and a store byte budget far below what
// the phase writes. Each request runs queue → worker → engine → store.Put
// → LRU eviction, with four fsyncs (journal admit, start and done, and the
// store put). Every response is checked against the engine's own output.
func (r *run) writePath(seconds float64, cat []call, names []string) error {
	cs, err := newColdStream(r.seed, cat)
	if err != nil {
		return err
	}
	s, err := startServer(filepath.Join(r.dir, "write-path"), coldStoreBytes, true)
	if err != nil {
		return err
	}
	defer s.srv.Drain()
	// The lint baselines are the catalog's lint responses, served cold then
	// warm and pinned; a variant of each entry is then checked the same way.
	lintBase := map[string][]byte{}
	for k, c := range cat {
		if c.kind != "lint" {
			continue
		}
		b, err := warm(s.h, c)
		if err != nil {
			return err
		}
		if !r.check(names[k], hexSum(b)) {
			return fmt.Errorf("write path: %s response is not the pinned one", names[k])
		}
		lintBase[cs.entries[k].soc] = b
	}
	for k := range cs.entries {
		c := cs.variant(k, -1-int64(k))
		b, err := warm(s.h, c)
		if err != nil {
			return err
		}
		if want, err := cs.expected(c, lintBase); err != nil || !bytes.Equal(b, want) {
			return fmt.Errorf("warm-up %s response differs from the engine's own output (%v)", c.kind, err)
		}
	}
	before, err := s.metricsz()
	if err != nil {
		return err
	}
	// The write path keeps a log of its requests, to check their bytes
	// after the phase; the traced run reports no peak_rss_mb.
	per := make([][]sample, serveClients)
	load(s.h, seconds, cs.call, func(i int64, c call, rep reply, ms float64) {
		ok := rep.code == http.StatusOK && rep.cache == "miss"
		per[i%serveClients] = append(per[i%serveClients], sample{i: i, kind: c.kind, ok: ok, sum: sha256.Sum256(rep.body)})
	}, r.tr)
	var samples []sample
	for _, p := range per {
		samples = append(samples, p...)
	}
	after, err := s.metricsz()
	if err != nil {
		return err
	}
	if err := r.verifyCold(cs, samples, lintBase); err != nil {
		return err
	}
	for _, sm := range samples {
		r.attempted++
		if !sm.ok {
			r.failed++
		}
	}
	ops := float64(len(samples))
	for _, kind := range []string{"tdv", "schedule", "lint", "atpg"} {
		r.layer("srv.service_ms."+kind, after.Histograms["srv.service."+kind].P50*1e3)
	}
	qw := after.Histograms["srv.queuewait.all"]
	r.layer("srv.queuewait_ms.p50", qw.P50*1e3)
	r.layer("srv.queuewait_ms.p95", qw.P95*1e3)
	for _, name := range []string{"store.puts", "store.evictions", "srv.jobs.executed", "srv.jobs.failed"} {
		r.layer(name, ratio(float64(after.Counters[name]-before.Counters[name]), ops))
	}
	fs, err := fsyncProbe(filepath.Join(r.dir, "fsync-probe.jsonl"))
	if err != nil {
		return err
	}
	r.layer("runctl.fsync_ms", fs)
	return nil
}

// sample is one completed write-path request.
type sample struct {
	i    int64
	kind string
	ok   bool     // a 200 miss
	sum  [32]byte // body digest, checked after the phase
}

// verifyCold recomputes every served response through the engines and
// marks the samples whose bytes differ as failed.
func (r *run) verifyCold(cs *coldStream, samples []sample, lintBase map[string][]byte) error {
	differs := make([]bool, len(samples))
	_, err := par.ForEach(context.Background(), len(samples), serveWorkers, func(k int) error {
		if !samples[k].ok {
			return nil
		}
		want, err := cs.expected(cs.call(samples[k].i), lintBase)
		differs[k] = sha256.Sum256(want) != samples[k].sum
		return err
	})
	for k := range samples {
		if differs[k] {
			r.complain("write path: request %d (%s): response differs from the engine's output", samples[k].i, samples[k].kind)
			samples[k].ok = false
		}
	}
	return err
}

// fsyncProbe times durable appends on the store's disk: the median of
// runctl.AppendFile.Append, one journal-sized record and one fsync each.
func fsyncProbe(path string) (float64, error) {
	af, err := runctl.OpenAppend(path)
	if err != nil {
		return 0, err
	}
	defer af.Close()
	record := []byte(`{"v":1,"op":"done","job":"j-000000","kind":"tdv"}` + "\n")
	var ms []float64
	for k := 0; k < 50; k++ {
		t0 := now()
		if err := af.Append(record); err != nil {
			return 0, err
		}
		ms = append(ms, since(t0)*1e3)
	}
	return percentile(ms, 0.5), nil
}
