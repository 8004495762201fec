package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/netlist"
	"repro/internal/soc"
)

// The golden digest pins the complete output of test generation — final
// patterns, raw cubes, every per-fault Outcome with its Backtracks count,
// and the accounting — for every .bench fixture, the six stand-ins and the
// flattened SOC1/SOC2 designs, under several option sets. The committed
// file was produced by the full-pass PODEM (re-evaluate the whole circuit
// on every decision), so it keeps anchoring the search's behaviour even
// after that implementation is gone. Regenerate only for an intended
// behaviour change:
//
//	go test -run TestPODEMGolden -update ./internal/atpg

var updateGolden = flag.Bool("update", false, "rewrite testdata/podem_golden.json")

const goldenPath = "testdata/podem_golden.json"

// goldenEntry is one subject × option-set line of the golden file.
type goldenEntry struct {
	Patterns   int    `json:"patterns"`
	Outcomes   int    `json:"outcomes"`
	Backtracks int    `json:"backtracks"`
	Digest     string `json:"digest"`
}

// fixtureCircuits parses every top-level .bench fixture of the netlist
// package.
func fixtureCircuits(t testing.TB) map[string]*netlist.Circuit {
	t.Helper()
	paths, err := filepath.Glob("../netlist/testdata/*.bench")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no .bench fixtures found: %v", err)
	}
	out := make(map[string]*netlist.Circuit)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".bench")
		c, err := netlist.ParseBenchString(name, string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[name] = c
	}
	return out
}

// flatSOC builds a flattened SOC the way the live experiments do at gate
// scale 1: instance i of a core profile gets seed offset i·1013, and the
// cores are flattened with 45% interconnect.
func flatSOC(t testing.TB, name string, cores []string) *netlist.Circuit {
	t.Helper()
	var cs []*netlist.Circuit
	for i, cn := range cores {
		prof, ok := bench89.ProfileByName(cn)
		if !ok {
			t.Fatalf("unknown core %q", cn)
		}
		prof.Seed += int64(i) * 1013
		c, err := bench89.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	flat, err := soc.Flatten(name+"-flat", cs, soc.FlattenOptions{InterconnectFraction: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// searchSubjects returns every circuit the PODEM golden and differential
// suites cover, keyed by a stable name. big marks the subjects whose
// per-fault differential is sampled rather than exhaustive.
func searchSubjects(t testing.TB) (subjects map[string]*netlist.Circuit, big map[string]bool) {
	t.Helper()
	subjects = fixtureCircuits(t)
	big = make(map[string]bool)
	for _, p := range bench89.StandardProfiles() {
		c, err := bench89.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		subjects[p.Name] = c
		if p.Gates >= 2000 {
			big[p.Name] = true
		}
	}
	subjects["SOC1-flat"] = flatSOC(t, "SOC1", []string{"s713", "s953", "s1423", "s1423", "s1423"})
	subjects["SOC2-flat"] = flatSOC(t, "SOC2", []string{"s953", "s5378", "s13207", "s15850"})
	big["SOC1-flat"], big["SOC2-flat"] = true, true
	return subjects, big
}

// goldenVariants are the option sets the digest covers: the experiments'
// defaults, dynamic compaction (the base-constrained search) and escalating
// retry passes from a deliberately small backtrack limit.
func goldenVariants() map[string]Options {
	dyn := DefaultOptions()
	dyn.DynamicCompact = true
	esc := DefaultOptions()
	esc.BacktrackLimit = 3
	esc.Passes = 3
	return map[string]Options{"default": DefaultOptions(), "dynamic": dyn, "passes": esc}
}

// resultDigest hashes everything externally observable about a result.
func resultDigest(c *netlist.Circuit, r *Result) goldenEntry {
	h := sha256.New()
	for _, p := range r.Patterns {
		fmt.Fprintln(h, "P", p.String())
	}
	for _, q := range r.Cubes {
		fmt.Fprintln(h, "C", q.String())
	}
	e := goldenEntry{Patterns: len(r.Patterns), Outcomes: len(r.Outcomes)}
	for _, o := range r.Outcomes {
		fmt.Fprintln(h, "O", o.Fault.String(c), o.Status, o.Backtracks)
		e.Backtracks += o.Backtracks
	}
	fmt.Fprintln(h, "A", r.NumFaults, r.NumDetected, r.NumRedundant, r.NumAborted,
		r.Degraded, r.Incomplete, r.Coverage, r.EffectiveCoverage)
	e.Digest = fmt.Sprintf("%x", h.Sum(nil))
	return e
}

func readGoldenFile(t *testing.T) map[string]goldenEntry {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]goldenEntry
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPODEMGolden regenerates every subject × variant at Workers=1 and
// compares it with the committed digest. The small subjects are also
// rerun at 2, 4 and 8 workers, which must hit the same digest.
func TestPODEMGolden(t *testing.T) {
	subjects, big := searchSubjects(t)
	got := make(map[string]goldenEntry)
	var names []string
	for name := range subjects {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := subjects[name]
		for vname, opts := range goldenVariants() {
			opts.Workers = 1
			key := name + "/" + vname
			got[key] = resultDigest(c, Generate(c, opts))
			if big[name] || *updateGolden {
				continue
			}
			for _, w := range []int{2, 4, 8} {
				opts.Workers = w
				if e := resultDigest(c, Generate(c, opts)); e != got[key] {
					t.Errorf("%s: workers=%d digest %+v, workers=1 %+v", key, w, e, got[key])
				}
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGoldenFile(t)
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, run produced %d", len(want), len(got))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: missing from %s", key, goldenPath)
		} else if g != w {
			t.Errorf("%s: got %+v, golden %+v", key, g, w)
		}
	}
}

// TestPODEMGoldenCheckpointResume interrupts a checkpointed run, resumes it
// under a different worker count, and requires the golden digest of the
// uninterrupted run.
func TestPODEMGoldenCheckpointResume(t *testing.T) {
	want := readGoldenFile(t)["s953/default"]
	c := standin(t, "s953")
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	if _, err := GenerateContext(cancelAfter(10), c, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt run: %v", err)
	}
	opts.Workers = 1
	opts.Checkpoint.Resume = true
	res, err := GenerateContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(c, res); got != want {
		t.Errorf("resumed digest %+v, golden %+v", got, want)
	}
}
