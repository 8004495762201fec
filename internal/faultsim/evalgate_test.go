package faultsim

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// combTypes lists every combinational gate type EvalGate accepts.
var combTypes = []netlist.GateType{
	netlist.Buf, netlist.Not, netlist.And, netlist.Nand, netlist.Or,
	netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Const0, netlist.Const1,
}

// forEachInput calls f with every fanin vector over vals for every gate type
// in combTypes at every legal arity up to 4. The slice passed to f is reused.
func forEachInput(vals []logic.V, f func(t netlist.GateType, in []logic.V)) {
	for _, t := range combTypes {
		hi := t.MaxFanin()
		if hi < 0 {
			hi = 4
		}
		for n := t.MinFanin(); n <= hi; n++ {
			in := make([]logic.V, n)
			var rec func(i int)
			rec = func(i int) {
				if i == n {
					f(t, in)
					return
				}
				for _, v := range vals {
					in[i] = v
					rec(i + 1)
				}
			}
			rec(0)
		}
	}
}

// TestEvalGateAllTypes pins every gate type on binary values.
func TestEvalGateAllTypes(t *testing.T) {
	one, zero := logic.One, logic.Zero
	cases := []struct {
		t    netlist.GateType
		in   []logic.V
		want logic.V
	}{
		{netlist.Buf, []logic.V{one}, one},
		{netlist.Not, []logic.V{one}, zero},
		{netlist.And, []logic.V{one, one, zero}, zero},
		{netlist.Nand, []logic.V{one, one, one}, zero},
		{netlist.Or, []logic.V{zero, zero, one}, one},
		{netlist.Nor, []logic.V{zero, zero}, one},
		{netlist.Xor, []logic.V{one, one, one}, one},
		{netlist.Xnor, []logic.V{one, zero}, zero},
		{netlist.Const0, nil, zero},
		{netlist.Const1, nil, one},
	}
	for _, c := range cases {
		if got := EvalGate(c.t, c.in); got != c.want {
			t.Errorf("EvalGate(%v, %v) = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

// TestEvalGateFaultValuePropagation: D passes a gate whose other inputs are
// non-controlling (inverted by inverting gates), is blocked by a
// controlling value, and cancels against D̄. On c17 with all inputs 1, a D
// on G1 reaches G22 as D and leaves G23 fault-free.
func TestEvalGateFaultValuePropagation(t *testing.T) {
	one, zero, d, db := logic.One, logic.Zero, logic.D, logic.DBar
	cases := []struct {
		t    netlist.GateType
		in   []logic.V
		want logic.V
	}{
		{netlist.Buf, []logic.V{d}, d},
		{netlist.Not, []logic.V{d}, db},
		{netlist.And, []logic.V{d, one, one}, d},
		{netlist.Nand, []logic.V{one, d}, db},
		{netlist.And, []logic.V{d, zero}, zero},
		{netlist.Or, []logic.V{zero, db}, db},
		{netlist.Nor, []logic.V{d, zero, zero}, db},
		{netlist.Or, []logic.V{d, one}, one},
		{netlist.Xor, []logic.V{d, one}, db},
		{netlist.Xnor, []logic.V{d, zero}, db},
		{netlist.And, []logic.V{d, db}, zero},
		{netlist.Or, []logic.V{d, db}, one},
		{netlist.Xor, []logic.V{d, d}, zero},
		{netlist.Or, []logic.V{d, logic.X, db}, logic.X},
	}
	for _, c := range cases {
		if got := EvalGate(c.t, c.in); got != c.want {
			t.Errorf("EvalGate(%v, %v) = %v, want %v", c.t, c.in, got, c.want)
		}
	}

	c := mustParse(t, "c17", c17Bench)
	vals := make([]logic.V, c.NumGates())
	for _, id := range c.Inputs() {
		vals[id] = one
	}
	g1, _ := c.Lookup("G1")
	vals[g1] = d
	var in []logic.V
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		in = in[:0]
		for _, f := range g.Fanin {
			in = append(in, vals[f])
		}
		vals[id] = EvalGate(g.Type, in)
	}
	// G10 = NAND(D,1) = D̄; G16 = NAND(1, NAND(1,1)=0) = 1; G22 = NAND(D̄,1) = D.
	g22, _ := c.Lookup("G22")
	g23, _ := c.Lookup("G23")
	if vals[g22] != d {
		t.Errorf("G22 = %v, want D", vals[g22])
	}
	if vals[g23].Faulty() {
		t.Errorf("G23 = %v, must not carry the fault", vals[g23])
	}
}

func TestEvalGatePanicsOnInput(t *testing.T) {
	for _, typ := range []netlist.GateType{netlist.Input, netlist.DFF} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EvalGate(%v) did not panic", typ)
				}
			}()
			EvalGate(typ, []logic.V{logic.One})
		}()
	}
}

// TestEvalGateMatchesEvalBool: on binary fanin the five-valued reference
// and the serial reference's two-valued evaluator agree on every gate type
// and arity up to 4.
func TestEvalGateMatchesEvalBool(t *testing.T) {
	bools := make([]bool, 4)
	forEachInput([]logic.V{logic.Zero, logic.One}, func(typ netlist.GateType, in []logic.V) {
		for i, v := range in {
			bools[i] = v == logic.One
		}
		if got, want := EvalGate(typ, in), logic.FromBool(evalBool(typ, bools[:len(in)])); got != want {
			t.Fatalf("%v%v: EvalGate %v, evalBool %v", typ, in, got, want)
		}
	})
}

// TestEvalGateRefinementMonotone: replacing any X input by 0 or 1 never
// changes an output that was already determined (0, 1, D or D̄) — the
// monotonicity PODEM's search-space pruning relies on. Every gate type at
// arity up to 4, over all five values.
func TestEvalGateRefinementMonotone(t *testing.T) {
	all := []logic.V{logic.Zero, logic.One, logic.X, logic.D, logic.DBar}
	forEachInput(all, func(typ netlist.GateType, in []logic.V) {
		out := EvalGate(typ, in)
		if out == logic.X {
			return
		}
		for i, v := range in {
			if v != logic.X {
				continue
			}
			for _, b := range []logic.V{logic.Zero, logic.One} {
				in[i] = b
				if got := EvalGate(typ, in); got != out {
					t.Errorf("%v: X at pin %d refined to %v flips %v to %v (in %v)", typ, i, b, out, got, in)
				}
			}
			in[i] = logic.X
		}
	})
}

// TestEvalGateXPropagation: an X input yields X unless a controlling value
// decides the gate; all-X fanin is X for every non-constant gate.
func TestEvalGateXPropagation(t *testing.T) {
	forEachInput([]logic.V{logic.Zero, logic.One, logic.X}, func(typ netlist.GateType, in []logic.V) {
		hasX, has0, has1 := false, false, false
		for _, v := range in {
			hasX = hasX || v == logic.X
			has0 = has0 || v == logic.Zero
			has1 = has1 || v == logic.One
		}
		if !hasX {
			return
		}
		want := logic.X
		switch typ {
		case netlist.And:
			if has0 {
				want = logic.Zero
			}
		case netlist.Nand:
			if has0 {
				want = logic.One
			}
		case netlist.Or:
			if has1 {
				want = logic.One
			}
		case netlist.Nor:
			if has1 {
				want = logic.Zero
			}
		}
		if got := EvalGate(typ, in); got != want {
			t.Errorf("EvalGate(%v, %v) = %v, want %v", typ, in, got, want)
		}
	})
}

// TestSerialEvalMatchesC17Equations checks the serial reference's
// topological pass against c17's boolean equations written out by hand,
// over all 32 input patterns.
func TestSerialEvalMatchesC17Equations(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	nand := func(a, b bool) bool { return !(a && b) }
	vals := make([]bool, c.NumGates())
	g22, _ := c.Lookup("G22")
	g23, _ := c.Lookup("G23")
	for bits := 0; bits < 32; bits++ {
		var in [5]bool // G1, G2, G3, G6, G7
		p := make(logic.Cube, 5)
		for i := range in {
			in[i] = bits>>uint(i)&1 == 1
			p[i] = logic.FromBool(in[i])
		}
		serialEval(c, p, noFault, vals)
		n10, n11 := nand(in[0], in[2]), nand(in[2], in[3])
		n16, n19 := nand(in[1], n11), nand(n11, in[4])
		if w22, w23 := nand(n10, n16), nand(n16, n19); vals[g22] != w22 || vals[g23] != w23 {
			t.Fatalf("bits=%05b: G22,G23 = %v,%v, want %v,%v", bits, vals[g22], vals[g23], w22, w23)
		}
	}
}
