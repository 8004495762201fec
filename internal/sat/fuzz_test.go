package sat

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// FuzzTseitin stresses the CNF encoder with arbitrary parsed netlists via
// the self-miter property: two independently encoded copies of the same
// circuit over shared stimulus variables, constrained to agree on every
// observation point, must always be satisfiable — an UNSAT verdict is a
// hard encoder or solver failure. The satisfying model is then replayed
// through the five-valued reference evaluation: every encoded gate literal
// that simulates to 0 or 1, in both copies, must equal the simulated value.
func FuzzTseitin(f *testing.F) {
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\nd = DFF(n)\ny = XOR(n, d)\n")
	f.Add("INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nOUTPUT(G7)\nG5 = OR(G1, G2)\nG6 = XNOR(G2, G3)\nG7 = AND(G5, G6)\n")
	f.Add("x = CONST1()\nz = CONST0()\nOUTPUT(w)\nw = NOR(x, z)\n")
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XOR(a, b, c)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := netlist.ParseBenchString("fuzz", src)
		if err != nil {
			return
		}
		if c.NumGates() > 400 {
			return // keep a fuzz iteration cheap
		}

		cnf := NewCNF()
		enc := NewEncoder(cnf)
		first := enc.Circuit(c, nil)
		// Second copy: same source literals, independent gate variables
		// (sharing is off, so nothing collapses).
		second := &CircuitEncoding{C: c, lit: make([]Lit, c.NumGates())}
		for _, id := range c.PseudoInputs() {
			second.setLit(id, first.Lit(id))
		}
		enc.encodeGates(second, nil)

		// Constrain every observation point to agree across the copies.
		for _, id := range c.PseudoOutputs() {
			a, b := first.Lit(id), second.Lit(id)
			cnf.Add(a.Neg(), b)
			cnf.Add(a, b.Neg())
		}

		s := NewSolver(cnf)
		if !s.Solve() {
			t.Fatalf("self-miter UNSAT for circuit:\n%s", src)
		}
		vals := simulate(c, first.InputCube(s))
		for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
			want := vals[id]
			if want != logic.Zero && want != logic.One {
				continue
			}
			wantB := want == logic.One
			if got := s.ValueOf(first.Lit(id)); got != wantB {
				t.Fatalf("gate %q: first copy modeled %v, simulation says %v\n%s",
					c.Gate(id).Name, got, want, src)
			}
			if got := s.ValueOf(second.Lit(id)); got != wantB {
				t.Fatalf("gate %q: second copy modeled %v, simulation says %v\n%s",
					c.Gate(id).Name, got, want, src)
			}
		}
	})
}
