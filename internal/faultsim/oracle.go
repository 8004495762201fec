package faultsim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// MaxOracleInputs bounds exhaustive enumeration: AllPatterns refuses wider
// pseudo-input frames, because 2^17 patterns stops being "brute force you
// can afford in a test" territory.
const MaxOracleInputs = 16

// AllPatterns enumerates every fully specified cube over a width-bit
// pseudo-input frame, in ascending binary order: cube k has position j set
// to bit j of k. It panics beyond MaxOracleInputs — the caller should skip
// circuits too wide to brute-force rather than silently subsample.
func AllPatterns(width int) []logic.Cube {
	if width < 0 || width > MaxOracleInputs {
		panic(fmt.Sprintf("faultsim: AllPatterns width %d outside [0, %d]", width, MaxOracleInputs))
	}
	out := make([]logic.Cube, 1<<uint(width))
	for k := range out {
		p := make(logic.Cube, width)
		for j := 0; j < width; j++ {
			p[j] = logic.FromBool(k&(1<<uint(j)) != 0)
		}
		out[k] = p
	}
	return out
}

// Oracle is a brute-force reference fault simulator, deliberately sharing
// no machinery with the bit-parallel Engine: every pattern against every
// fault, each pair checked with the serial reference's full good and
// faulty passes over plain bools; no epochs, no dropping, no cone pruning.
// It is the slowest, most obviously-correct implementation that the
// differential tests pit the fast ones against.
type Oracle struct {
	c *netlist.Circuit
}

// NewOracle returns an oracle over the finalized circuit c.
func NewOracle(c *netlist.Circuit) *Oracle {
	if !c.Finalized() {
		panic("faultsim: oracle circuit not finalized")
	}
	return &Oracle{c: c}
}

// noFault marks a serialEval call with no injection.
var noFault = faults.Fault{Gate: -1}

// evalBool is the two-valued gate evaluator of the serial reference and the
// oracle — independent of the compiled Program's opcodes on purpose.
func evalBool(t netlist.GateType, in []bool) bool {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return !in[0]
	case netlist.And, netlist.Nand:
		r := true
		for _, v := range in {
			r = r && v
		}
		if t == netlist.Nand {
			return !r
		}
		return r
	case netlist.Or, netlist.Nor:
		r := false
		for _, v := range in {
			r = r || v
		}
		if t == netlist.Nor {
			return !r
		}
		return r
	case netlist.Xor, netlist.Xnor:
		r := false
		for _, v := range in {
			r = r != v
		}
		if t == netlist.Xnor {
			return !r
		}
		return r
	case netlist.Const0:
		return false
	case netlist.Const1:
		return true
	}
	panic(fmt.Sprintf("faultsim: evalBool on non-combinational gate type %v", t))
}

// Detects reports whether pattern p detects fault f: any pseudo output of
// the faulty circuit differs from the good circuit.
func (o *Oracle) Detects(p logic.Cube, f faults.Fault) bool {
	return SerialDetects(o.c, p, f)
}

// Simulate brute-forces the first-detection table of the pattern set: for
// every fault, the lowest pattern index that detects it (Undetected when
// none does). Semantically identical to Simulate/SimulateWorkers; built
// completely differently.
func (o *Oracle) Simulate(patterns []logic.Cube, flist []faults.Fault) *Result {
	res := &Result{
		Faults:     flist,
		DetectedBy: make([]int, len(flist)),
	}
	for fi, f := range flist {
		res.DetectedBy[fi] = Undetected
		for k, p := range patterns {
			if o.Detects(p, f) {
				res.DetectedBy[fi] = k
				res.NumDetected++
				break
			}
		}
	}
	return res
}
