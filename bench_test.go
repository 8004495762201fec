package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark prints its rows once (guarded by a sync.Once)
// and then measures the cost of recomputing the underlying result, so
//
//	go test -bench=. -benchmem
//
// both reproduces the paper's numbers and times the reproduction. The
// Ablation benches quantify the design choices the analysis calls out:
// dedicated-cell isolation, pattern-count variance, compaction, and the
// TAM idle bits the paper's accounting deliberately excludes.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/tam"
)

var benchOnce sync.Once
var printOnce = map[string]*sync.Once{}
var printMu sync.Mutex

// printHeaderOnce prints s exactly once per benchmark name across the
// whole bench run.
func printHeaderOnce(name, s string) {
	printMu.Lock()
	o, ok := printOnce[name]
	if !ok {
		o = &sync.Once{}
		printOnce[name] = o
	}
	printMu.Unlock()
	o.Do(func() { fmt.Printf("\n%s\n", s) })
	benchOnce.Do(func() {})
}

// BenchmarkFigure1ConeExample reproduces the Section 3 worked example:
// 400 patterns x 50 bits = 20,000 monolithic stimulus bits.
func BenchmarkFigure1ConeExample(b *testing.B) {
	printHeaderOnce("fig1", RenderFigure1())
	for i := 0; i < b.N; i++ {
		m := ConeExample()
		if m.MonolithicStimulusBits() != 20000 {
			b.Fatal("Figure 1 volume drifted")
		}
	}
}

// BenchmarkFigure2ModularExample reproduces the modular counterpart:
// 15,000 bits, a 25% reduction.
func BenchmarkFigure2ModularExample(b *testing.B) {
	printHeaderOnce("fig2", RenderFigure2())
	for i := 0; i < b.N; i++ {
		m := ConeExample()
		if m.ModularStimulusBits() != 15000 {
			b.Fatal("Figure 2 volume drifted")
		}
	}
}

// BenchmarkFigure3P34392Hierarchy rebuilds the p34392 hierarchy sketch.
func BenchmarkFigure3P34392Hierarchy(b *testing.B) {
	printHeaderOnce("fig3", RenderFigure3())
	for i := 0; i < b.N; i++ {
		if RenderFigure3() == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure4SOC1Topology rebuilds the SOC1 topology sketch.
func BenchmarkFigure4SOC1Topology(b *testing.B) {
	printHeaderOnce("fig4", RenderFigure4())
	for i := 0; i < b.N; i++ {
		if RenderFigure4() == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure5SOC2Topology rebuilds the SOC2 topology sketch.
func BenchmarkFigure5SOC2Topology(b *testing.B) {
	printHeaderOnce("fig5", RenderFigure5())
	for i := 0; i < b.N; i++ {
		if RenderFigure5() == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable1SOC1 regenerates Table 1 from the published profile.
func BenchmarkTable1SOC1(b *testing.B) {
	printHeaderOnce("t1", RenderTable1())
	for i := 0; i < b.N; i++ {
		if SOC1().TDVModular() != 45183 {
			b.Fatal("Table 1 drifted")
		}
	}
}

// BenchmarkTable2SOC2 regenerates Table 2 from the published profile.
func BenchmarkTable2SOC2(b *testing.B) {
	printHeaderOnce("t2", RenderTable2())
	for i := 0; i < b.N; i++ {
		if SOC2().TDVModular() != 1344585 {
			b.Fatal("Table 2 drifted")
		}
	}
}

// BenchmarkTable3P34392 regenerates the per-core Table 3 computation.
func BenchmarkTable3P34392(b *testing.B) {
	printHeaderOnce("t3", RenderTable3())
	for i := 0; i < b.N; i++ {
		out := RenderTable3()
		if out == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4ITC02 regenerates the ten-SOC Table 4, including the
// calibrated profile synthesis for the nine non-p34392 benchmarks.
func BenchmarkTable4ITC02(b *testing.B) {
	out, err := RenderTable4()
	if err != nil {
		b.Fatal(err)
	}
	printHeaderOnce("t4", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq2MonolithicPatternInflation runs the live SOC1 experiment:
// stand-in cores, per-core ATPG, flattening, monolithic ATPG — validating
// Equation 2 (T_mono >= max_i T_i) end to end, the way Section 5.1 does
// with ATALANTA.
func BenchmarkEq2MonolithicPatternInflation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := LiveSOC1(LiveOptions{GateScale: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Eq2Holds() {
			b.Fatalf("Eq.2 violated: %d < %d", r.TMono, r.MaxCoreT)
		}
		if i == 0 {
			printHeaderOnce("eq2", RenderLive(r))
		}
	}
}

// BenchmarkAblationIsolationStyle quantifies the paper's pessimistic
// full-isolation assumption: modular TDV as the dedicated-wrapper-cell
// cost is scaled from 100% (paper) down to 0% (ideal functional-register
// reuse), for SOC1, SOC2 and p34392.
func BenchmarkAblationIsolationStyle(b *testing.B) {
	render := func() string {
		t := report.New("Ablation: isolation style (fraction of dedicated wrapper cells)",
			"SOC", "100% (paper)", "50%", "25%", "0% (reuse)")
		for _, s := range []*SOC{SOC1(), SOC2()} {
			cells := []string{s.Name}
			for _, f := range []float64{1, 0.5, 0.25, 0} {
				cells = append(cells, report.Int(modularWithISOFraction(s, f)))
			}
			t.AddRow(cells...)
		}
		return t.String()
	}
	printHeaderOnce("abl-iso", render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if modularWithISOFraction(SOC1(), 0.5) >= modularWithISOFraction(SOC1(), 1) {
			b.Fatal("isolation fraction must reduce TDV")
		}
	}
}

// modularWithISOFraction computes Σ T·(2S + f·ISOCOST).
func modularWithISOFraction(s *SOC, f float64) int64 {
	var n int64
	for _, m := range s.Modules() {
		n += int64(m.Patterns) * (2*int64(m.ScanCells) + int64(f*float64(m.ISOCost())))
	}
	return n
}

// BenchmarkAblationPatternVariance sweeps the normalized pattern-count
// deviation of a synthetic 10-core SOC and reports the modular TDV change
// versus optimistic monolithic — the correlation the paper draws from
// Table 4 ("the reduction is correlated to the normalized standard
// deviation of core pattern counts").
func BenchmarkAblationPatternVariance(b *testing.B) {
	render := func() string {
		t := report.New("Ablation: TDV change vs pattern-count variation (10 cores, S=1000, ISO=100 each)",
			"lambda", "NormStdev", "TDV change")
		for _, lambda := range []float64{0, 0.5, 1, 1.5, 2, 3, 4, 6} {
			s := varianceSOC(lambda)
			r := s.Analyze()
			t.AddRow(fmt.Sprintf("%.1f", lambda), report.Fixed2(r.NormStdev), report.Pct(r.ReductionVsOpt))
		}
		return t.String()
	}
	printHeaderOnce("abl-var", render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := varianceSOC(0.5).Analyze()
		hi := varianceSOC(4).Analyze()
		if hi.ReductionVsOpt >= lo.ReductionVsOpt {
			b.Fatal("higher variance must reduce TDV more")
		}
		if hi.NormStdev <= lo.NormStdev {
			b.Fatal("lambda must raise the deviation")
		}
	}
}

// varianceSOC builds a 10-core SOC whose pattern counts decay as
// exp(-lambda·i/9) from 10,000.
func varianceSOC(lambda float64) *SOC {
	top := &Module{Name: "top", PortsTesterAccessible: true}
	for i := 0; i < 10; i++ {
		tp := int(math.Round(10000 * math.Exp(-lambda*float64(i)/9)))
		if tp < 1 {
			tp = 1
		}
		top.Children = append(top.Children, &Module{
			Name:   fmt.Sprintf("core%d", i),
			Params: Params{Inputs: 55, Outputs: 45, ScanCells: 1000, Patterns: tp},
		})
	}
	return &SOC{Name: "variance-sweep", Top: top}
}

// BenchmarkAblationCompaction measures what static compaction and the
// random bootstrap contribute to the pattern count of a stand-in core —
// the mechanism behind the monolithic "topping off" of Section 3.
func BenchmarkAblationCompaction(b *testing.B) {
	prof, _ := bench89.ProfileByName("s953")
	c := bench89.MustGenerate(prof)
	configs := []struct {
		name string
		opts atpg.Options
	}{
		{"random+compact", atpg.Options{BacktrackLimit: 100, RandomPatterns: 64, Compact: true, Seed: 1}},
		{"compact only", atpg.Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true, Seed: 1}},
		{"random only", atpg.Options{BacktrackLimit: 100, RandomPatterns: 64, Compact: false, Seed: 1}},
		{"neither", atpg.Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: false, Seed: 1}},
	}
	render := func() string {
		t := report.New("Ablation: compaction and random bootstrap (s953 stand-in)",
			"Configuration", "Patterns", "Coverage")
		for _, cfg := range configs {
			r := atpg.Generate(c, cfg.opts)
			t.AddRow(cfg.name, fmt.Sprint(r.PatternCount()), fmt.Sprintf("%.1f%%", r.Coverage*100))
		}
		return t.String()
	}
	printHeaderOnce("abl-comp", render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := atpg.Generate(c, configs[0].opts)
		if r.PatternCount() == 0 {
			b.Fatal("no patterns")
		}
	}
}

// BenchmarkAblationTAMIdleBits quantifies what the paper's "useful bits
// only" accounting excludes: idle padding bits when scan chains are
// imbalanced, for a stand-in s1423 core under 4 chains. Each chain is
// modelled as a tam.WrapperChains entry of equal scan-in and scan-out
// length, so idle bits count both shift directions.
func BenchmarkAblationTAMIdleBits(b *testing.B) {
	prof, _ := bench89.ProfileByName("s1423")
	cells := len(bench89.MustGenerate(prof).DFFs())
	patterns := int64(62) // the core's published pattern count
	roundRobin := func(n int) []int {
		lens := make([]int, n)
		for i := 0; i < cells; i++ {
			lens[i%n]++
		}
		return lens
	}
	render := func() string {
		t := report.New("Ablation: TAM idle bits for s1423 stand-in (74 cells, 62 patterns)",
			"Chains", "MaxLen", "Idle bits/pattern (in+out)", "Idle bits total")
		for _, cfg := range []struct {
			name string
			lens []int
		}{{"4 balanced", roundRobin(4)}, {"40/20/10/4", []int{40, 20, 10, 4}}} {
			wc := tam.WrapperChains{In: cfg.lens, Out: cfg.lens}
			t.AddRow(cfg.name, fmt.Sprint(wc.MaxIn()),
				fmt.Sprint(wc.IdleBitsPerPattern()),
				report.Int(patterns*wc.IdleBitsPerPattern()))
		}
		return t.String()
	}
	printHeaderOnce("abl-tam", render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lens := roundRobin(4)
		// Balanced chains differ by at most one cell: at most one idle
		// bit per chain and direction, none on the longest chain.
		if wc := (tam.WrapperChains{In: lens, Out: lens}); wc.IdleBitsPerPattern() > 2*int64(len(lens)-1) {
			b.Fatal("round-robin chains must balance")
		}
	}
}

// BenchmarkATPGStandins times full test generation on each stand-in core —
// the per-core cost of the modular flow.
func BenchmarkATPGStandins(b *testing.B) {
	for _, name := range []string{"s713", "s953", "s1423"} {
		prof, _ := bench89.ProfileByName(name)
		c := bench89.MustGenerate(prof)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := atpg.Generate(c, atpg.DefaultOptions())
				if r.Coverage < 0.9 {
					b.Fatal("coverage collapsed")
				}
			}
		})
	}
}

// BenchmarkTDVEquations times the pure equation evaluation on the largest
// profile (a586710), confirming the analysis itself is trivially cheap.
func BenchmarkTDVEquations(b *testing.B) {
	rows, err := Table4()
	if err != nil {
		b.Fatal(err)
	}
	_ = rows
	s := SOC2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.Analyze()
		if r.TDVModular != 1344585 {
			b.Fatal("drifted")
		}
	}
}

var _ = core.Params{} // keep the import for the ablation helpers
