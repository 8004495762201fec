package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// soc1 builds the paper's SOC1 profile (Table 1) directly in this package
// to keep the equation tests free of higher-level dependencies.
func soc1() *SOC {
	return &SOC{
		Name: "SOC1",
		Top: &Module{
			Name:                  "Top",
			Params:                Params{Inputs: 51, Outputs: 10, Patterns: 2},
			PortsTesterAccessible: true,
			Children: []*Module{
				{Name: "s713", Params: Params{Inputs: 35, Outputs: 23, ScanCells: 19, Patterns: 52}},
				{Name: "s953", Params: Params{Inputs: 16, Outputs: 23, ScanCells: 29, Patterns: 85}},
				{Name: "s1423a", Params: Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
				{Name: "s1423b", Params: Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
				{Name: "s1423c", Params: Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
			},
		},
		TMono: 216,
	}
}

func soc2() *SOC {
	return &SOC{
		Name: "SOC2",
		Top: &Module{
			Name:                  "Top",
			Params:                Params{Inputs: 14, Outputs: 198, Patterns: 2},
			PortsTesterAccessible: true,
			Children: []*Module{
				{Name: "s953", Params: Params{Inputs: 16, Outputs: 23, ScanCells: 29, Patterns: 85}},
				{Name: "s5378", Params: Params{Inputs: 35, Outputs: 49, ScanCells: 179, Patterns: 244}},
				{Name: "s13207", Params: Params{Inputs: 31, Outputs: 121, ScanCells: 669, Patterns: 452}},
				{Name: "s15850", Params: Params{Inputs: 14, Outputs: 87, ScanCells: 597, Patterns: 428}},
			},
		},
		TMono: 945,
	}
}

func TestTable1PerCoreTDV(t *testing.T) {
	s := soc1()
	want := map[string]int64{
		"Top":    326,
		"s713":   4992,
		"s953":   8245,
		"s1423a": 10540,
		"s1423b": 10540,
		"s1423c": 10540,
	}
	for _, m := range s.Modules() {
		if got := m.ModularTDV(); got != want[m.Name] {
			t.Errorf("%s: modular TDV = %d, want %d", m.Name, got, want[m.Name])
		}
	}
	if got := s.TDVModular(); got != 45183 {
		t.Errorf("SOC1 modular TDV = %d, want 45183", got)
	}
}

func TestTable1MonolithicAndRatios(t *testing.T) {
	s := soc1()
	if got := s.TotalScanCells(); got != 270 {
		t.Errorf("S_chip = %d, want 270", got)
	}
	if got := s.TDVMono(); got != 129816 {
		t.Errorf("TDV_mono = %d, want 129816", got)
	}
	if got := s.MaxPatterns(); got != 85 {
		t.Errorf("T_max = %d, want 85", got)
	}
	if got := s.TDVMonoOpt(); got != 51085 {
		t.Errorf("TDV_mono_opt = %d, want 51085", got)
	}
	r := s.Analyze()
	if math.Abs(r.RatioVsActual-2.87) > 0.005 {
		t.Errorf("reduction ratio = %.3f, want 2.87", r.RatioVsActual)
	}
	if math.Abs(r.RatioVsOpt-1.13) > 0.005 {
		t.Errorf("pessimistic ratio = %.3f, want 1.13", r.RatioVsOpt)
	}
	if math.Abs(r.PessimismFactor-2.5) > 0.05 {
		t.Errorf("pessimism factor = %.2f, want ~2.5", r.PessimismFactor)
	}
	if r.NumCores != 5 || r.NumModules != 6 {
		t.Errorf("core counts: %d cores / %d modules", r.NumCores, r.NumModules)
	}
}

func TestTable1PenaltyBenefitIdentity(t *testing.T) {
	s := soc1()
	// First-principles Eq. 7/8 values (the paper's printed 10,627/95,260
	// absorb the chip-port correction; see package comment and
	// EXPERIMENTS.md).
	if got := s.Penalty(); got != 10749 {
		t.Errorf("penalty = %d, want 10749", got)
	}
	if got := s.Benefit(216); got != 82206 {
		t.Errorf("benefit = %d, want 82206", got)
	}
	if got := s.ChipPortTerm(216); got != 61*216 {
		t.Errorf("chip port term = %d", got)
	}
	if err := s.VerifyIdentity(216); err != nil {
		t.Error(err)
	}
	// The paper's printed penalty − benefit equals ours minus the chip
	// term: both decompositions yield the same TDV_modular.
	paperNet := int64(10627 - 95260)
	ourNet := s.Penalty() - s.Benefit(216) - s.ChipPortTerm(216)
	if paperNet != ourNet {
		t.Errorf("net penalty-benefit: paper %d, ours %d", paperNet, ourNet)
	}
}

func TestTable2Values(t *testing.T) {
	s := soc2()
	want := map[string]int64{
		"Top":    752,
		"s953":   8245,
		"s5378":  107848,
		"s13207": 673480,
		"s15850": 554260,
	}
	for _, m := range s.Modules() {
		if got := m.ModularTDV(); got != want[m.Name] {
			t.Errorf("%s: modular TDV = %d, want %d", m.Name, got, want[m.Name])
		}
	}
	if got := s.TDVModular(); got != 1344585 {
		t.Errorf("SOC2 modular TDV = %d, want 1344585", got)
	}
	if got := s.TDVMono(); got != 2986200 {
		t.Errorf("TDV_mono = %d, want 2986200", got)
	}
	if got := s.TDVMonoOpt(); got != 1428320 {
		t.Errorf("TDV_mono_opt = %d, want 1428320", got)
	}
	r := s.Analyze()
	if math.Abs(r.RatioVsActual-2.22) > 0.005 {
		t.Errorf("reduction ratio = %.3f, want 2.22", r.RatioVsActual)
	}
	if math.Abs(r.RatioVsOpt-1.06) > 0.005 {
		t.Errorf("pessimistic ratio = %.3f, want 1.06", r.RatioVsOpt)
	}
	if math.Abs(r.PessimismFactor-2.1) > 0.05 {
		t.Errorf("pessimism factor = %.2f, want ~2.1", r.PessimismFactor)
	}
	if err := s.VerifyIdentity(945); err != nil {
		t.Error(err)
	}
	// Paper's printed net decomposition matches ours after the chip-port
	// correction: 97,701 − 1,739,316 == Pen − Ben − ChipPort.
	if int64(97701-1739316) != s.Penalty()-s.Benefit(945)-s.ChipPortTerm(945) {
		t.Error("SOC2 net penalty-benefit decomposition mismatch")
	}
}

func TestHierarchicalISOCost(t *testing.T) {
	// p34392 Core 2 (Table 3): I=165 O=263 S=8856 T=514, children 3..9.
	core2 := &Module{
		Name:   "Core2",
		Params: Params{Inputs: 165, Outputs: 263, ScanCells: 8856, Patterns: 514},
		Children: []*Module{
			{Params: Params{Inputs: 37, Outputs: 25, Patterns: 3108}},
			{Params: Params{Inputs: 38, Outputs: 25, Patterns: 6180}},
			{Params: Params{Inputs: 62, Outputs: 25, Patterns: 12336}},
			{Params: Params{Inputs: 11, Outputs: 8, Patterns: 1965}},
			{Params: Params{Inputs: 9, Outputs: 8, Patterns: 512}},
			{Params: Params{Inputs: 46, Outputs: 17, Patterns: 9930}},
			{Params: Params{Inputs: 41, Outputs: 33, Patterns: 228}},
		},
	}
	if got := core2.ISOCost(); got != 813 {
		t.Errorf("ISOCOST(Core2) = %d, want 813", got)
	}
	if got := core2.ModularTDV(); got != 9521850 {
		t.Errorf("TDV(Core2) = %d, want 9521850 (Table 3)", got)
	}
}

func TestBidirsCountTwice(t *testing.T) {
	p := Params{Inputs: 3, Outputs: 2, Bidirs: 4}
	if got := p.PortBits(); got != 13 {
		t.Errorf("PortBits = %d, want 13", got)
	}
}

func TestNormStdevMatchesPaper(t *testing.T) {
	// g12710's published pattern counts: 852, 1314, 1223, 1223 -> 0.18
	// (with the sample n-1 divisor).
	s := &SOC{Name: "g12710-like", Top: &Module{
		Params: Params{Patterns: 852},
		Children: []*Module{
			{Params: Params{Patterns: 1314}},
			{Params: Params{Patterns: 1223}},
			{Params: Params{Patterns: 1223}},
		},
	}}
	if got := s.NormStdevPatterns(); math.Abs(got-0.18) > 0.005 {
		t.Errorf("norm stdev = %.3f, want 0.18", got)
	}
}

func TestNormStdevEdgeCases(t *testing.T) {
	single := &SOC{Top: &Module{Params: Params{Patterns: 7}}}
	if single.NormStdevPatterns() != 0 {
		t.Error("single-module stdev must be 0")
	}
	zeros := &SOC{Top: &Module{Children: []*Module{{}, {}}}}
	if zeros.NormStdevPatterns() != 0 {
		t.Error("zero-mean stdev must be 0")
	}
}

func TestBenefitPanicsOnEq2Violation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Benefit with T > T_mono did not panic")
		}
	}()
	s := soc1()
	s.Benefit(10) // far below max core pattern count 85
}

// TestCheckRange pins the int64 boundary of the TDV terms: a module whose
// Eq. 4 term is exactly math.MaxInt64 passes and evaluates to that value;
// one more port bit is refused, as is each other overflowing term, a
// negative count, and the profile that once printed a negative module TDV.
func TestCheckRange(t *testing.T) {
	for _, s := range []*SOC{soc1(), soc2()} {
		if err := s.CheckRange(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	edge := &SOC{Name: "edge", Top: &Module{Name: "A", Params: Params{Inputs: math.MaxInt64, Patterns: 1}}}
	if err := edge.CheckRange(); err != nil {
		t.Fatalf("edge: %v", err)
	}
	if r := edge.Analyze(); r.TDVModular != math.MaxInt64 || r.TDVMonoOpt != math.MaxInt64 {
		t.Errorf("edge: modular %d, mono_opt %d, want MaxInt64", r.TDVModular, r.TDVMonoOpt)
	}

	mod := func(name string, p Params, kids ...*Module) *Module {
		return &Module{Name: name, Params: p, Children: kids}
	}
	half := math.MaxInt64 / 2
	withTMono := soc1()
	withTMono.TMono = math.MaxInt64 / 100
	cases := []struct {
		name, module, term string
		s                  *SOC
	}{
		{"port bits", "A", "port bits", &SOC{Top: mod("A", Params{Inputs: math.MaxInt64, Outputs: 1, Patterns: 1})}},
		{"2B", "A", "2B", &SOC{Top: mod("A", Params{Bidirs: half + 1})}},
		{"ISOCOST", "T", "ISOCOST", &SOC{Top: mod("T", Params{Inputs: half + 1},
			mod("A", Params{Outputs: half + 1}))}},
		{"wrap", "CoreA", "Eq. 4 term", &SOC{Top: mod("CoreA",
			Params{Inputs: 8, Outputs: 8, ScanCells: 4000000000, Patterns: 4000000000})}},
		{"modular", "", "TDV_modular", &SOC{Top: mod("T", Params{},
			mod("A", Params{ScanCells: 1 << 40, Patterns: 1 << 21}), mod("B", Params{ScanCells: 1 << 40, Patterns: 1 << 21}))}},
		{"S_chip", "", "S_chip", &SOC{Top: mod("T", Params{ScanCells: half},
			mod("A", Params{ScanCells: half}), mod("B", Params{ScanCells: half}))}},
		{"mono_opt", "", "TDV_mono_opt", &SOC{Top: mod("T", Params{Inputs: 1 << 40, Patterns: 1},
			mod("A", Params{Patterns: 1 << 30}))}},
		{"mono", "", "TDV_mono (Eq. 1)", withTMono},
	}
	for _, tc := range cases {
		want := "core: " + tc.term
		if tc.module != "" {
			want = "core: module " + tc.module + ": " + tc.term
		}
		if err := tc.s.CheckRange(); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: CheckRange = %v, want %q…", tc.name, err, want)
		}
	}
	neg := &SOC{Top: mod("A", Params{ScanCells: -1, Patterns: 1})}
	if err := neg.CheckRange(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative scan count: CheckRange = %v", err)
	}
	negMono := soc1()
	negMono.TMono = -1
	if err := negMono.CheckRange(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative T_mono: CheckRange = %v", err)
	}
}

func TestTDVMonoUnmeasured(t *testing.T) {
	s := soc1()
	s.TMono = 0
	if s.TDVMono() != 0 {
		t.Error("TDVMono must be 0 when unmeasured")
	}
	r := s.Analyze()
	if r.TDVMonoAct != 0 || r.RatioVsActual != 0 || r.PessimismFactor != 0 {
		t.Error("unmeasured analysis must zero the actual-based fields")
	}
	// Benefit then references T_max.
	if r.Benefit != s.Benefit(s.MaxPatterns()) {
		t.Error("benefit must use T_max when unmeasured")
	}
}

// Property: the Equation 6 identity holds for every consistent random SOC
// and every t >= T_max.
func TestIdentityProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		top := &Module{
			Name:   "top",
			Params: Params{Inputs: r.Intn(100), Outputs: r.Intn(100), Bidirs: r.Intn(20), ScanCells: r.Intn(50), Patterns: 1 + r.Intn(50)},
		}
		n := 1 + r.Intn(8)
		for i := 0; i < n; i++ {
			ch := &Module{Params: Params{
				Inputs: r.Intn(200), Outputs: r.Intn(200), Bidirs: r.Intn(30),
				ScanCells: r.Intn(5000), Patterns: 1 + r.Intn(10000),
			}}
			// Occasionally add grandchildren.
			for j := 0; j < r.Intn(3); j++ {
				ch.Children = append(ch.Children, &Module{Params: Params{
					Inputs: r.Intn(100), Outputs: r.Intn(100), Patterns: 1 + r.Intn(8000),
				}})
			}
			top.Children = append(top.Children, ch)
		}
		s := &SOC{Name: "rand", Top: top}
		t1 := s.MaxPatterns()
		t2 := t1 + r.Intn(1000)
		return s.VerifyIdentity(t1) == nil && s.VerifyIdentity(t2) == nil
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: modular TDV decomposes as Σ 2S·T plus the penalty.
func TestModularDecompositionProperty(t *testing.T) {
	s := soc2()
	var scanPart int64
	for _, m := range s.Modules() {
		scanPart += 2 * int64(m.ScanCells) * int64(m.Patterns)
	}
	if s.TDVModular() != scanPart+s.Penalty() {
		t.Error("TDV_modular != Σ2S·T + penalty")
	}
}

func TestFlattenPreOrder(t *testing.T) {
	s := soc1()
	mods := s.Modules()
	if len(mods) != 6 || mods[0].Name != "Top" || mods[1].Name != "s713" {
		t.Errorf("pre-order wrong: %v", mods[0].Name)
	}
}
