package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coopt"
	"repro/internal/lint"
)

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for k := 100; k >= 1; k-- {
		hundred = append(hundred, float64(k))
	}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2}, // a measured sample, not the midpoint 2.5
		{hundred, 0.5, 50},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{hundred, 0.001, 1},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 2, Name: "leaf", Start: 2, End: 3},
		{ID: 4, Parent: 1, Name: "b", Start: 3, End: 6},  // overlaps a: a parallel call
		{ID: 5, Parent: 1, Name: "a", Start: 8, End: 12}, // runs past its parent
	}
	self := selfTimes(spans)
	// op: 10 minus the union [1,6] ∪ [8,10] of its children = 3.
	want := map[int]float64{1: 3, 2: 2, 3: 1, 4: 3, 5: 4}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %g, want %g", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["a"] != 6 || layers["b"] != 3 || layers["leaf"] != 1 || layers["op"] != 3 {
		t.Errorf("layer self times = %v", layers)
	}
	if got := coverage(spans); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("coverage = %g, want 0.7", got)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.start("op", 0, 1)
	tr.do("child", root, 1, func() {})
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Error("child span is not inside its parent")
	}
}

func TestHotStreamDependsOnlyOnSeed(t *testing.T) {
	cat, _, err := hotCatalog()
	if err != nil {
		t.Fatal(err)
	}
	cdf := zipfCDF(len(cat), zipfS)
	seq := func(seed int64) []int {
		var out []int
		for i := int64(0); i < 5000; i++ {
			out = append(out, hotIndex(cdf, seed, i))
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	same := true
	counts := make([]int, len(cat))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 request %d: entry %d then %d", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
		counts[a[i]]++
	}
	if same {
		t.Error("seeds 7 and 8 give the same stream")
	}
	// Zipf: the hottest entry is drawn most, and every entry is drawn.
	for k, n := range counts {
		if n == 0 || n > counts[0] {
			t.Errorf("entry %d drawn %d times (hottest %d)", k, n, counts[0])
		}
	}
}

func TestColdStreamDependsOnlyOnSeedAndNeverRepeats(t *testing.T) {
	cat, _, err := hotCatalog()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := newColdStream(3, cat)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newColdStream(3, cat)
	s3, _ := newColdStream(4, cat)
	seen := map[string]bool{}
	kinds := map[string]int{}
	differs := false
	const n = serveClients * 10 * 20
	for i := int64(0); i < n; i++ {
		a, b, c := s1.call(i), s2.call(i), s3.call(i)
		if a != b {
			t.Fatalf("seed 3 request %d differs between two streams", i)
		}
		differs = differs || a != c
		if seen[a.body] {
			t.Fatalf("request %d repeats an earlier request body", i)
		}
		seen[a.body] = true
		kinds[a.kind]++
	}
	if !differs {
		t.Error("seeds 3 and 4 give the same stream")
	}
	// Every client steps through the catalog, so the mix is its kinds'.
	want := map[string]int{"tdv": 4 * n / 10, "schedule": 2 * n / 10, "lint": n / 10, "atpg": 3 * n / 10}
	for k, w := range want {
		if kinds[k] != w {
			t.Errorf("%d %s requests in %d, want %d", kinds[k], k, n, w)
		}
	}
}

// TestColdRequestsAreServedCorrectly sends each client's first pass over
// the write-path mix to a real server and checks every response against
// the engines' own output, as the benchmark does after its window.
func TestColdRequestsAreServedCorrectly(t *testing.T) {
	cat, _, err := hotCatalog()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := newColdStream(5, cat)
	if err != nil {
		t.Fatal(err)
	}
	s, err := startServer(t.TempDir(), coldStoreBytes, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.Drain()
	lintBase := map[string][]byte{}
	for k, c := range cat {
		if c.kind == "lint" {
			b, err := warm(s.h, c)
			if err != nil {
				t.Fatal(err)
			}
			lintBase[cs.entries[k].soc] = b
		}
	}
	for i := int64(0); i < int64(serveClients*len(cat)); i++ {
		c := cs.call(i)
		rep := post(s.h, c)
		if rep.code != http.StatusOK || rep.cache != "miss" {
			t.Fatalf("request %d (%s): status %d, X-Cache %q: %s", i, c.kind, rep.code, rep.cache, rep.body)
		}
		want, err := cs.expected(c, lintBase)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(rep.body) {
			t.Errorf("request %d (%s): served bytes differ from the engine's", i, c.kind)
		}
	}

	// The check after the window fails a sample whose bytes differ.
	good, bad := sample{i: 0, ok: true}, sample{i: 0, ok: true}
	want, err := cs.expected(cs.call(0), lintBase)
	if err != nil {
		t.Fatal(err)
	}
	good.sum, bad.sum = sha256.Sum256(want), sha256.Sum256(append(want, ' '))
	samples := []sample{good, bad}
	r := &run{workload: "serve_hot"}
	if err := r.verifyCold(cs, samples, lintBase); err != nil {
		t.Fatal(err)
	}
	if !samples[0].ok || samples[1].ok {
		t.Errorf("after verifyCold: matching sample ok=%v, differing sample ok=%v", samples[0].ok, samples[1].ok)
	}
}

func TestOutputCheckFailuresCount(t *testing.T) {
	r := &run{workload: "itc02_sweep", expected: map[string]string{"d695": "pinned"}}
	if !r.check("d695", "pinned") {
		t.Error("matching value failed its check")
	}
	if r.check("d695", "other") {
		t.Error("mismatching value passed its check")
	}
	if r.check("p22810", "pinned") {
		t.Error("unpinned value passed its check")
	}

	// checkSweep counts a mismatch, an error and an lb_ratio over 2 alike.
	good := sweepOut{lint: &lint.Report{}, points: []coopt.FrontierPoint{{TAMWidth: 8, LBRatio: 1.5}}}
	r.expected["d695"] = good.String()
	r.checkSweep("d695", good, nil)
	if r.attempted != 1 || r.failed != 0 {
		t.Fatalf("good op: attempted %d failed %d", r.attempted, r.failed)
	}
	bad := good
	bad.points = []coopt.FrontierPoint{{TAMWidth: 8, LBRatio: 2.5}}
	r.checkSweep("d695", bad, nil)
	r.checkSweep("d695", good, os.ErrInvalid)
	r.checkSweep("p22810", good, nil)
	if r.attempted != 4 || r.failed != 3 {
		t.Fatalf("after three bad ops: attempted %d failed %d", r.attempted, r.failed)
	}
	r.slices, r.setups = []slice{newSlice(1, []float64{1, 2, 3, 4})}, []float64{0.5}
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 3 || res.Attempted != 4 {
		t.Errorf("result = %+v, want incorrect with 3 of 4 failed", res)
	}
}

func TestHotCatalogWarmsToPinsAndDerivesServerKeys(t *testing.T) {
	cat, names, err := hotCatalog()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	s, err := startServer(t.TempDir(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.Drain()
	r := &run{workload: "serve_hot", expected: exp["serve_hot"]}
	for k, c := range cat {
		b, err := warm(s.h, c)
		if err != nil {
			t.Fatal(err)
		}
		if !r.check(names[k], hexSum(b)) {
			t.Errorf("%s: response is not the pinned one", names[k])
		}
		rep := post(s.h, c)
		if rep.cache != "hit" || string(rep.body) != string(b) {
			t.Fatalf("%s warm request: X-Cache %q, body equal %v", names[k], rep.cache, string(rep.body) == string(b))
		}
		// A key derived by the benchmark must be the one the server stored.
		key, err := keyOf(c)
		if err != nil {
			t.Fatal(err)
		}
		if !s.store.Contains(key) {
			t.Errorf("%s: derived key is not in the store", names[k])
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the reported metric names and
// units in step with the repository's BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, listed []struct{ Name, Unit string }, code map[string]string) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(listed), len(code))
		}
		for _, m := range listed {
			if unit, ok := code[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, reported as %q (present %v)", what, m.Name, m.Unit, unit, ok)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, e2eUnits)
	compare("per_layer", spec.PerLayer, layerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

func TestMeterSlicesByCompletion(t *testing.T) {
	m := newMeter()
	var tdvSum float64
	for k := 0; k < 2*sliceRequests+10; k++ {
		ms := float64(k%100 + 1)
		if k%2 == 0 {
			tdvSum += ms
		}
		m.add([]string{"tdv", "atpg"}[k%2], ms, k != 5)
	}
	if len(m.open) != 10 {
		t.Errorf("%d latencies held, want only the open slice's 10", len(m.open))
	}
	if got, want := m.meanMS("tdv"), tdvSum/(sliceRequests+5); got != want {
		t.Errorf("tdv mean %g ms, want %g", got, want)
	}
	if got, want := m.meanMS(""), m.meanMS("tdv")/2+m.meanMS("atpg")/2; got != want {
		t.Errorf("overall mean %g ms, want %g", got, want)
	}
	r := &run{}
	r.account(m)
	if r.attempted != 2*sliceRequests+10 || r.failed != 1 {
		t.Errorf("attempted %d failed %d", r.attempted, r.failed)
	}
	if len(r.slices) != 2 {
		t.Fatalf("%d slices, want 2 full ones with the open tail dropped", len(r.slices))
	}
	for k, s := range r.slices {
		if s.ops != sliceRequests || s.p50 != 50 || s.p99 != 99 || s.seconds < 0 || s.rssMB <= 0 {
			t.Errorf("slice %d: %+v", k, s)
		}
	}
	short, m2 := &run{}, newMeter()
	for k := 0; k < 10; k++ {
		m2.add("tdv", 1, true)
	}
	short.account(m2)
	if len(short.slices) != 1 || short.slices[0].ops != 10 {
		t.Errorf("a short window keeps its one open slice: %+v", short.slices)
	}
}
