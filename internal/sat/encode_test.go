package sat

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// fixtureCircuits parses every committed well-formed .bench fixture.
func fixtureCircuits(t testing.TB) map[string]*netlist.Circuit {
	t.Helper()
	out := make(map[string]*netlist.Circuit)
	for _, dir := range []string{"../netlist/testdata", "../../cmd/soclint/testdata/clean"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.bench"))
		if err != nil {
			t.Fatal(err)
		}
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
	}
	if len(out) < 5 {
		t.Fatalf("expected several fixtures, found %d", len(out))
	}
	return out
}

// simulate is the tests' five-valued reference evaluation of c under one
// stimulus cube over its pseudo inputs: every other gate starts at X and
// is folded in topological order with faultsim.EvalGate. X inputs stay X,
// so a gate that depends on an input the encoding left free simulates to
// X rather than to a guessed value.
func simulate(c *netlist.Circuit, cube logic.Cube) []logic.V {
	vals := make([]logic.V, c.NumGates())
	for i := range vals {
		vals[i] = logic.X
	}
	for i, id := range c.PseudoInputs() {
		vals[id] = cube[i]
	}
	var in []logic.V
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		in = in[:0]
		for _, f := range g.Fanin {
			in = append(in, vals[f])
		}
		vals[id] = faultsim.EvalGate(g.Type, in)
	}
	return vals
}

func randomCube(r *rand.Rand, width int) logic.Cube {
	cube := logic.NewCube(width)
	for i := range cube {
		cube[i] = logic.FromBool(r.Intn(2) == 1)
	}
	return cube
}

// inputAssumptions turns a fully specified cube into assumption literals
// over the encoding's pseudo-input variables.
func inputAssumptions(ce *CircuitEncoding, cube logic.Cube) []Lit {
	var as []Lit
	for i, id := range ce.C.PseudoInputs() {
		l := ce.Lit(id)
		if l == 0 {
			continue
		}
		if cube[i] != logic.One {
			l = l.Neg()
		}
		as = append(as, l)
	}
	return as
}

// TestEncodeReplaysSimulation drives every fixture's full encoding with
// random fully specified stimuli: the formula must be satisfiable under the
// stimulus assumptions, and every encoded gate literal must agree with the
// five-valued reference evaluation.
func TestEncodeReplaysSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for name, c := range fixtureCircuits(t) {
		cnf := NewCNF()
		enc := NewEncoder(cnf)
		ce := enc.Circuit(c, nil)
		solver := NewSolver(cnf)
		for trial := 0; trial < 16; trial++ {
			cube := randomCube(r, len(c.PseudoInputs()))
			if !solver.Solve(inputAssumptions(ce, cube)...) {
				t.Fatalf("%s: encoding UNSAT under stimulus %s", name, cube)
			}
			vals := simulate(c, cube)
			for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
				want := vals[id]
				if want != logic.Zero && want != logic.One {
					continue // DFF data values are irrelevant here; sources are set
				}
				if got := solver.ValueOf(ce.Lit(id)); got != (want == logic.One) {
					t.Fatalf("%s: gate %q = %v in model, %v in simulation (stimulus %s)",
						name, c.Gate(id).Name, got, want, cube)
				}
			}
		}
	}
}

// TestEncodeRestriction checks that a support-restricted encoding covers
// exactly the fanin closure and replays correctly on it.
func TestEncodeRestriction(t *testing.T) {
	c := fixtureCircuits(t)["c17"]
	out := c.Outputs()[0]
	keep := Support(c, []netlist.GateID{out})
	for id := range keep {
		for _, f := range c.Gate(id).Fanin {
			g := c.Gate(id)
			if g.Type == netlist.Input || g.Type == netlist.DFF {
				continue
			}
			if !keep[f] {
				t.Fatalf("support not fanin-closed: %q misses fanin %q", g.Name, c.Gate(f).Name)
			}
		}
	}
	cnf := NewCNF()
	enc := NewEncoder(cnf)
	ce := enc.Circuit(c, keep)
	for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
		if keep[id] && ce.Lit(id) == 0 {
			t.Fatalf("gate %q in support but not encoded", c.Gate(id).Name)
		}
		if !keep[id] && ce.Lit(id) != 0 {
			t.Fatalf("gate %q outside support but encoded", c.Gate(id).Name)
		}
	}
}

// TestEncoderSharing pins the structural-hashing contract: a second copy of
// the same circuit over the same source literals collapses onto the first.
func TestEncoderSharing(t *testing.T) {
	for name, c := range fixtureCircuits(t) {
		cnf := NewCNF()
		enc := NewEncoder(cnf)
		enc.EnableSharing()
		first := enc.Circuit(c, nil)
		second := &CircuitEncoding{C: c, lit: make([]Lit, c.NumGates())}
		for _, id := range c.PseudoInputs() {
			second.setLit(id, first.Lit(id))
		}
		before := cnf.NumVars()
		enc.encodeGates(second, nil)
		if cnf.NumVars() != before {
			t.Fatalf("%s: second shared copy allocated %d new variables", name, cnf.NumVars()-before)
		}
		for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
			if first.Lit(id) != second.Lit(id) {
				t.Fatalf("%s: gate %q got distinct literals %v vs %v under sharing",
					name, c.Gate(id).Name, first.Lit(id), second.Lit(id))
			}
		}
	}
}

// TestEncodeInputVarsFirst pins the decision-order contract: pseudo-input
// variables occupy the lowest indices.
func TestEncodeInputVarsFirst(t *testing.T) {
	for name, c := range fixtureCircuits(t) {
		cnf := NewCNF()
		ce := NewEncoder(cnf).Circuit(c, nil)
		for i, id := range c.PseudoInputs() {
			if got := ce.Lit(id); got != Lit(i+1) {
				t.Fatalf("%s: pseudo input %d has literal %v, want %d", name, i, got, i+1)
			}
		}
	}
}
