package sat

import (
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// TestCheckProgramFixtures proves every committed fixture's compiled
// Program equivalent to its source netlist — structurally, with zero
// search, and identically across repeated runs.
func TestCheckProgramFixtures(t *testing.T) {
	for name, c := range fixtureCircuits(t) {
		p := faultsim.Compile(c)
		for run := 0; run < 2; run++ {
			res := CheckProgram(c, p)
			if !res.Equivalent {
				t.Fatalf("%s run %d: not equivalent: %s", name, run, res.Reason)
			}
			if !res.Structural || res.Conflicts != 0 {
				t.Fatalf("%s run %d: honest compile should close structurally with 0 conflicts, got structural=%v conflicts=%d",
					name, run, res.Structural, res.Conflicts)
			}
		}
	}
}

// twin builds two same-shape circuits differing only in the type of one
// middle gate, so their frames match but their functions do not.
func twin(t *testing.T, mid netlist.GateType) *netlist.Circuit {
	t.Helper()
	c := netlist.New("twin")
	a := c.MustAddGate("a", netlist.Input)
	b := c.MustAddGate("b", netlist.Input)
	d := c.MustAddGate("d", netlist.DFF, a)
	m := c.MustAddGate("m", mid, a, b)
	y := c.MustAddGate("y", netlist.Xor, m, d)
	if err := c.MarkOutput(y); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCheckProgramCatchesMiscompile pins the negative direction: a Program
// compiled from a functionally different circuit is refuted with a concrete
// counterexample that both netlists confirm.
func TestCheckProgramCatchesMiscompile(t *testing.T) {
	cAnd := twin(t, netlist.And)
	cOr := twin(t, netlist.Or)
	p := faultsim.Compile(cAnd)
	res := CheckProgram(cOr, p)
	if res.Equivalent {
		t.Fatal("AND-compile checked against OR netlist should not be equivalent")
	}
	if res.Counterexample == nil {
		t.Fatalf("expected a counterexample, got reason %q", res.Reason)
	}
	if res.FramePos < 0 || res.FramePos >= len(cAnd.PseudoOutputs()) {
		t.Fatalf("frame position %d out of range", res.FramePos)
	}
	rAnd := simulate(cAnd, res.Counterexample)[cAnd.PseudoOutputs()[res.FramePos]]
	rOr := simulate(cOr, res.Counterexample)[cOr.PseudoOutputs()[res.FramePos]]
	if rAnd == rOr {
		t.Fatalf("counterexample %s does not distinguish the circuits at position %d",
			res.Counterexample, res.FramePos)
	}
	// Determinism of the refutation.
	res2 := CheckProgram(cOr, p)
	if res2.Equivalent || res2.FramePos != res.FramePos ||
		res2.Counterexample.String() != res.Counterexample.String() ||
		res2.Conflicts != res.Conflicts {
		t.Fatalf("refutation differs across runs: %+v vs %+v", res, res2)
	}
}

// TestCheckProgramFrameMismatch pins the structural-shape guard.
func TestCheckProgramFrameMismatch(t *testing.T) {
	c1 := twin(t, netlist.And)
	c2 := netlist.New("other")
	x := c2.MustAddGate("x", netlist.Input)
	n := c2.MustAddGate("n", netlist.Not, x)
	if err := c2.MarkOutput(n); err != nil {
		t.Fatal(err)
	}
	if err := c2.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := CheckProgram(c2, faultsim.Compile(c1))
	if res.Equivalent || res.Reason == "" {
		t.Fatalf("frame mismatch should fail with a reason, got %+v", res)
	}
}
