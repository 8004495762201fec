package itc02

import "testing"

// FuzzParseSOC exercises the SOC description parser and the TDV evaluation
// behind it: no panics; successful parses round trip through the writer
// with identical TDV results; and every accepted profile either fails
// CheckRange or evaluates with no negative TDV term and the exact Eq. 6
// identity holding.
func FuzzParseSOC(f *testing.F) {
	f.Add("soc x\nmodule A i 1 o 2 b 0 s 3 t 4\ntop A\n")
	f.Add("soc sc\nmodule A i 1 o 2 b 0 s 806 t 4 sc 403,403\ntop A\n")
	f.Add(SOCString(P34392()))
	f.Add("soc y\ntmono 10\nmodule T children A testeraccess\nmodule A t 5 s 9\ntop T\n")
	f.Add("# nothing\n")
	f.Add("soc z\nmodule A t 1 children A\ntop A\n")
	// Directive-named modules and comment/whitespace edges: a module may
	// legally be called top/module/children; the parser keys on position,
	// and the writer must emit text that reparses to the same SOC.
	f.Add("soc k\nmodule top t 1\ntop top\n")
	f.Add("module A\ntop A") // no soc line: the writer must not emit an empty one
	f.Add("soc k2\n  module children i 1 t 2 children module  # comment\nmodule module t 3\ntop children\n")
	f.Add("# leading comment\n\r\nsoc w\r\nmodule A t 4 testeraccess\r\ntop A\r\n")
	// Counts whose Eq. 4 term wraps int64; unchecked, they evaluated to a
	// negative module TDV.
	f.Add("soc wrap\nmodule CoreA i 8 o 8 b 0 s 4000000000 t 4000000000\ntop CoreA\n")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSOCString(src)
		if err != nil {
			return
		}
		text := SOCString(s)
		re, err := ParseSOCString(text)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, text)
		}
		if re.TDVModular() != s.TDVModular() || re.TDVMonoOpt() != s.TDVMonoOpt() {
			t.Fatal("round trip changed TDV")
		}
		if re.Penalty() != s.Penalty() {
			t.Fatal("round trip changed penalty")
		}
		if len(re.Modules()) != len(s.Modules()) {
			t.Fatal("round trip changed module count")
		}

		if s.CheckRange() != nil {
			return
		}
		tref := s.MaxPatterns()
		if s.TMono > 0 {
			if s.TMono < tref {
				return // violates Eq. 2; every caller refuses it before Analyze
			}
			tref = s.TMono
		}
		r := s.Analyze()
		for name, v := range map[string]int64{
			"TDV_modular": r.TDVModular, "TDV_mono_opt": r.TDVMonoOpt, "TDV_mono": r.TDVMonoAct,
			"penalty": r.Penalty, "benefit": r.Benefit, "chip-port term": r.ChipPort,
		} {
			if v < 0 {
				t.Fatalf("%s = %d is negative for an in-range profile:\n%s", name, v, text)
			}
		}
		for _, m := range s.Modules() {
			if m.ModularTDV() < 0 || m.ISOCost() < 0 {
				t.Fatalf("module %s: TDV %d, ISOCOST %d for an in-range profile", m.Name, m.ModularTDV(), m.ISOCost())
			}
		}
		if err := s.VerifyIdentity(tref); err != nil {
			t.Fatal(err)
		}
	})
}
