package faultsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// memoFailingOutputs is the earlier, structurally different implementation
// of SerialFailingOutputs, kept as a differential reference: recursive
// demand-driven evaluation from each pseudo output with map memoization,
// gates evaluated by EvalGate over five-valued inputs.
func memoFailingOutputs(c *netlist.Circuit, pattern logic.Cube, f faults.Fault) []int {
	ppis := c.PseudoInputs()
	if len(pattern) != len(ppis) {
		panic("faultsim: pattern width mismatch")
	}
	in := make(map[netlist.GateID]bool, len(ppis))
	for i, id := range ppis {
		in[id] = pattern[i] == logic.One
	}

	stuck := f.Stuck == logic.One

	var evalGood func(id netlist.GateID) bool
	var evalBad func(id netlist.GateID) bool
	goodMemo := make(map[netlist.GateID]bool)
	badMemo := make(map[netlist.GateID]bool)

	evalGate := func(g *netlist.Gate, eval func(netlist.GateID) bool, faultyPin int) bool {
		vals := make([]logic.V, len(g.Fanin))
		for j, fin := range g.Fanin {
			if j == faultyPin {
				vals[j] = logic.FromBool(stuck)
			} else {
				vals[j] = logic.FromBool(eval(fin))
			}
		}
		return EvalGate(g.Type, vals) == logic.One
	}

	evalGood = func(id netlist.GateID) bool {
		if v, ok := goodMemo[id]; ok {
			return v
		}
		g := c.Gate(id)
		var v bool
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			v = in[id]
		} else {
			v = evalGate(g, evalGood, -999)
		}
		goodMemo[id] = v
		return v
	}
	evalBad = func(id netlist.GateID) bool {
		if v, ok := badMemo[id]; ok {
			return v
		}
		g := c.Gate(id)
		var v bool
		switch {
		case f.Pin == faults.StemPin && id == f.Gate:
			v = stuck
		case g.Type == netlist.Input || g.Type == netlist.DFF:
			v = in[id]
		case f.Pin != faults.StemPin && id == f.Gate:
			v = evalGate(g, evalBad, f.Pin)
		default:
			v = evalGate(g, evalBad, -999)
		}
		badMemo[id] = v
		return v
	}

	if f.Pin != faults.StemPin && c.Gate(f.Gate).Type == netlist.DFF {
		drv := c.Gate(f.Gate).Fanin[f.Pin]
		if evalGood(drv) == stuck {
			return nil
		}
		for i, d := range c.DFFs() {
			if d == f.Gate {
				return []int{len(c.Outputs()) + i}
			}
		}
		return nil
	}

	var fails []int
	for i, id := range c.PseudoOutputs() {
		if evalGood(id) != evalBad(id) {
			fails = append(fails, i)
		}
	}
	return fails
}

// TestSerialFailingOutputsMatchesMemoReference checks the array-based
// SerialFailingOutputs and SerialDetects against the memoized recursive
// reference for every fault of the full (uncollapsed) universe — DFF-pin
// branch faults included — on every fixture, random netlists and two
// stand-ins, under random patterns with X bits.
func TestSerialFailingOutputsMatchesMemoReference(t *testing.T) {
	circuits := fixtureCircuits(t)
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 4; i++ {
		circuits[fmt.Sprintf("random%d", i)] = randomCircuit(t, r, 6+i, 40+20*i, 3, 2+i)
	}
	circuits["s713"] = standinCircuit(t, "s713")
	circuits["s1423"] = standinCircuit(t, "s1423")
	names := make([]string, 0, len(circuits))
	for name := range circuits {
		names = append(names, name)
	}
	slices.Sort(names) // the shared pattern stream must not follow map order
	dffPin := 0
	for _, name := range names {
		c := circuits[name]
		flist := faults.Universe(c)
		npat := 12
		if c.NumGates() > 300 {
			npat = 2
		}
		patterns := randomPatterns(r, len(c.PseudoInputs()), npat)
		for k := range patterns {
			if k%2 == 1 {
				for i := range patterns[k] {
					if r.Intn(4) == 0 {
						patterns[k][i] = logic.X
					}
				}
			}
		}
		for _, f := range flist {
			if f.Pin != faults.StemPin && c.Gate(f.Gate).Type == netlist.DFF {
				dffPin++
			}
			for k, p := range patterns {
				want := memoFailingOutputs(c, p, f)
				if got := SerialFailingOutputs(c, p, f); !slices.Equal(got, want) {
					t.Fatalf("%s fault %s pattern %d: SerialFailingOutputs %v, memo reference %v",
						name, f.String(c), k, got, want)
				}
				if got := SerialDetects(c, p, f); got != (len(want) > 0) {
					t.Fatalf("%s fault %s pattern %d: SerialDetects %v, memo reference %v",
						name, f.String(c), k, got, want)
				}
			}
		}
	}
	if dffPin == 0 {
		t.Error("no DFF-pin branch faults exercised")
	}
}
