package faultsim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// SerialSimulate is the pattern-at-a-time serial reference fault simulator:
// one pattern simulated at a time, one full faulty-circuit topological
// re-evaluation per still-undetected fault, plain bools throughout — no
// word packing, no compiled program, no cone pruning. Fault dropping keeps
// its semantics identical to Simulate: DetectedBy[i] is the first pattern
// index detecting Faults[i], or Undetected.
//
// It is the differential oracle for circuits whose input frame is too wide
// for the exhaustive Oracle, and the honest serial baseline that
// cmd/benchjson measures the PPSFP kernel against.
func SerialSimulate(c *netlist.Circuit, patterns []logic.Cube, flist []faults.Fault) *Result {
	if !c.Finalized() {
		panic("faultsim: SerialSimulate on non-finalized circuit")
	}
	res := &Result{
		Faults:     flist,
		DetectedBy: make([]int, len(flist)),
	}
	remaining := make([]int, len(flist))
	for i := range flist {
		res.DetectedBy[i] = Undetected
		remaining[i] = i
	}
	good := make([]bool, c.NumGates())
	bad := make([]bool, c.NumGates())
	for k, p := range patterns {
		if len(remaining) == 0 {
			break
		}
		serialEval(c, p, noFault, good)
		keep := remaining[:0]
		for _, fi := range remaining {
			if serialPatternDetects(c, p, good, bad, flist[fi]) {
				res.DetectedBy[fi] = k
				res.NumDetected++
			} else {
				keep = append(keep, fi)
			}
		}
		remaining = keep
	}
	return res
}

// serialEval evaluates every gate of the circuit for one pattern (X loaded
// as 0) into vals, injecting the fault when it is a real one.
func serialEval(c *netlist.Circuit, p logic.Cube, inject faults.Fault, vals []bool) {
	ppis := c.PseudoInputs()
	if len(p) != len(ppis) {
		panic("faultsim: pattern width mismatch")
	}
	for i := range vals {
		vals[i] = false
	}
	for i, id := range ppis {
		vals[id] = p[i] == logic.One
	}
	stuck := inject.Stuck == logic.One
	injecting := inject.Gate >= 0
	if injecting && inject.Pin == faults.StemPin {
		g := c.Gate(inject.Gate)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			vals[inject.Gate] = stuck
		}
	}
	var in []bool
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if injecting && id == inject.Gate && inject.Pin == faults.StemPin {
			vals[id] = stuck
			continue
		}
		if cap(in) < len(g.Fanin) {
			in = make([]bool, len(g.Fanin))
		}
		in = in[:len(g.Fanin)]
		for j, fin := range g.Fanin {
			in[j] = vals[fin]
		}
		if injecting && id == inject.Gate && inject.Pin != faults.StemPin {
			in[inject.Pin] = stuck
		}
		vals[id] = evalBool(g.Type, in)
	}
}

// EvalGate evaluates one combinational gate over five-valued fanin values
// as a left fold of the logic package's operators, so OR(D, X, D̄) is X: the
// reference PODEM's compiled evaluator and the SAT encoder are tested
// against. It panics on source gate types (Input, DFF).
func EvalGate(t netlist.GateType, in []logic.V) logic.V {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return logic.Not(in[0])
	case netlist.And:
		return logic.AndN(in...)
	case netlist.Nand:
		return logic.Not(logic.AndN(in...))
	case netlist.Or:
		return logic.OrN(in...)
	case netlist.Nor:
		return logic.Not(logic.OrN(in...))
	case netlist.Xor:
		return logic.XorN(in...)
	case netlist.Xnor:
		return logic.Not(logic.XorN(in...))
	case netlist.Const0:
		return logic.Zero
	case netlist.Const1:
		return logic.One
	}
	panic(fmt.Sprintf("faultsim: EvalGate on non-combinational gate type %v", t))
}

// serialPatternDetects reports whether pattern p detects fault f, given the
// good-circuit values already evaluated for p. The faulty circuit is fully
// re-evaluated into bad (caller-owned scratch).
func serialPatternDetects(c *netlist.Circuit, p logic.Cube, good, bad []bool, f faults.Fault) bool {
	g := c.Gate(f.Gate)
	if f.Pin != faults.StemPin && g.Type == netlist.DFF {
		// Branch fault on a DFF data pin: the capture is stuck; detection
		// is the good driver value differing from the stuck value.
		return good[g.Fanin[f.Pin]] != (f.Stuck == logic.One)
	}
	serialEval(c, p, f, bad)
	for _, id := range c.PseudoOutputs() {
		if good[id] != bad[id] {
			return true
		}
	}
	return false
}

// SerialDetects reports whether the single fully specified pattern detects
// the fault. It shares the serial reference's evaluator (one good and one
// faulty full topological pass over plain bools) and is used as the
// reference oracle for the bit-parallel engine in tests, and by the ATPG to
// confirm generated patterns. X bits in the pattern are treated as 0,
// matching Engine.Apply.
func SerialDetects(c *netlist.Circuit, pattern logic.Cube, f faults.Fault) bool {
	return len(SerialFailingOutputs(c, pattern, f)) > 0
}

// SerialFailingOutputs returns the pseudo-output frame positions at which
// the faulty machine differs from the good one for the pattern (empty when
// the pattern does not detect the fault): the reference the engine's
// FailingPositions is tested against.
func SerialFailingOutputs(c *netlist.Circuit, pattern logic.Cube, f faults.Fault) []int {
	good := make([]bool, c.NumGates())
	serialEval(c, pattern, noFault, good)
	// A branch fault on a DFF data pin is observed at that DFF's capture
	// frame position.
	if g := c.Gate(f.Gate); f.Pin != faults.StemPin && g.Type == netlist.DFF {
		if good[g.Fanin[f.Pin]] == (f.Stuck == logic.One) {
			return nil
		}
		for i, d := range c.DFFs() {
			if d == f.Gate {
				return []int{len(c.Outputs()) + i}
			}
		}
		return nil
	}
	bad := make([]bool, c.NumGates())
	serialEval(c, pattern, f, bad)
	var fails []int
	for i, id := range c.PseudoOutputs() {
		if good[id] != bad[id] {
			fails = append(fails, i)
		}
	}
	return fails
}
