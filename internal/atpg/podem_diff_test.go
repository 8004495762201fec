package atpg

import (
	"flag"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// sameSearch runs one fault through the incremental search and the
// full-pass reference under the same base cube and fails on any difference
// in cube, status or backtrack count.
func sameSearch(t *testing.T, pd *podem, ref *refPodem, f faults.Fault, base logic.Cube) (logic.Cube, Status) {
	t.Helper()
	cube, st := pd.runWithBase(f, base)
	rcube, rst := ref.runWithBase(f, base)
	if st != rst || pd.backtracks != ref.backtracks || cube.String() != rcube.String() {
		t.Fatalf("fault %s (base %v): incremental %v/%d %v, reference %v/%d %v",
			f.String(pd.c), base, st, pd.backtracks, cube, rst, ref.backtracks, rcube)
	}
	return cube, st
}

var exhaustiveDiff = flag.Bool("exhaustive", false, "differential-test every fault of every subject")

// TestPODEMMatchesFullPassReference drives the collapsed faults of every
// search subject through both searches: unconstrained at the default
// backtrack limit, again under the previous detection's cube as a base
// (dynamic compaction's runWithBase), and the first aborted faults once
// more at the 10x limit of an escalation pass. By default each subject is
// sampled at an even stride of at most diffSample faults, which keeps the
// full-pass reference affordable under -race; -exhaustive takes every
// fault:
//
//	go test -run TestPODEMMatchesFullPassReference ./internal/atpg -args -exhaustive
func TestPODEMMatchesFullPassReference(t *testing.T) {
	const diffSample, escalations = 150, 3
	subjects, _ := searchSubjects(t)
	var names []string
	for name := range subjects {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := subjects[name]
		t.Run(name, func(t *testing.T) {
			prog := faultsim.Compile(c)
			pd, ref := newPodem(prog, 100, 0, nil), newRefPodem(c, 100)
			esc, refEsc := newPodem(prog, 1000, 0, nil), newRefPodem(c, 1000)
			flist := faults.CollapsedUniverse(c)
			stride := 1
			if !*exhaustiveDiff {
				stride = (len(flist) + diffSample - 1) / diffSample
			}
			var base logic.Cube
			seen := map[Status]int{}
			for i := 0; i < len(flist); i += stride {
				f := flist[i]
				cube, st := sameSearch(t, pd, ref, f, nil)
				seen[st]++
				if base != nil {
					sameSearch(t, pd, ref, f, base)
				}
				switch {
				case st == Detected:
					base = cube
				case st == Aborted && (seen[Aborted] <= escalations || *exhaustiveDiff):
					sameSearch(t, esc, refEsc, f, nil)
				}
			}
			if seen[Detected] == 0 {
				t.Errorf("no fault detected: %v", seen)
			}
			t.Logf("%d of %d faults: %v", (len(flist)+stride-1)/stride, len(flist), seen)
		})
	}
}

// TestImplyMatchesFullPass checks the incremental implication state itself
// against the reference's full pass on random walks over the assignment
// stack — pushes, flips and multi-level pops, as the search makes them —
// comparing every gate value, the D-frontier list and the X-path verdict
// after each step.
func TestImplyMatchesFullPass(t *testing.T) {
	subjects, _ := searchSubjects(t)
	for _, name := range []string{"c17", "redundant", "seq4", "widefan", "s953", "s5378"} {
		c := subjects[name]
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(name))))
			pd, ref := newPodem(faultsim.Compile(c), 100, 0, nil), newRefPodem(c, 100)
			flist := faults.CollapsedUniverse(c)
			ppis := c.PseudoInputs()
			for trial := 0; trial < 60; trial++ {
				f := flist[r.Intn(len(flist))]
				var base logic.Cube
				if trial%3 == 2 {
					base = logic.NewCube(len(ppis))
					for i := range base {
						if r.Intn(5) == 0 {
							base[i] = logic.FromBool(r.Intn(2) == 1)
						}
					}
				}
				pd.reset(f, base)
				ref.fault, ref.dffPin, ref.base = f, pd.dffPin, base
				var stack []assignment
				for step := 0; step < 40; step++ {
					switch op := r.Intn(6); {
					case op < 3 && len(stack) < len(ppis):
						pi := ppis[r.Intn(len(ppis))]
						if pd.values[pi] == logic.X { // unassigned by stack and base
							stack = append(stack, assignment{pi: pi, value: logic.FromBool(r.Intn(2) == 1)})
						}
					case op < 5 && len(stack) > 0:
						k := r.Intn(len(stack))
						stack[k].value = logic.Not(stack[k].value)
						stack = stack[:k+1]
					case len(stack) > 0:
						stack = stack[:r.Intn(len(stack))]
					}
					pd.imply(stack)
					ref.imply(stack)
					for id := range ref.values {
						if pd.values[id] != ref.values[id] {
							t.Fatalf("fault %s step %d: gate %s = %v, full pass %v",
								f.String(c), step, c.Gate(netlist.GateID(id)).Name, pd.values[id], ref.values[id])
						}
					}
					if pd.dffPin {
						continue
					}
					want := ref.dFrontier()
					got := pd.dFrontier()
					if len(got) != len(want) {
						t.Fatalf("fault %s step %d: D-frontier %v, full pass %v", f.String(c), step, got, want)
					}
					for i := range want {
						if got[i] != int32(want[i]) {
							t.Fatalf("fault %s step %d: D-frontier %v, full pass %v", f.String(c), step, got, want)
						}
					}
					if pd.xPathExists() != ref.xPathExists() {
						t.Fatalf("fault %s step %d: X-path verdicts differ", f.String(c), step)
					}
				}
			}
		})
	}
}

// TestEvalSpecMatchesEvalGate pins the five-valued fold semantics: for
// every gate type at every legal arity up to 4 and all 5^k input vectors,
// the compiled-form evaluator equals faultsim.EvalGate. EvalGate
// left-folds with an X collapse at each step, so OR(D, X, D̄) = X although
// an exact good/bad pair evaluation gives 1; an evaluator that "fixed"
// this would change the search and with it every pattern count T_i.
func TestEvalSpecMatchesEvalGate(t *testing.T) {
	all := []logic.V{logic.Zero, logic.One, logic.X, logic.D, logic.DBar}
	types := []netlist.GateType{netlist.Buf, netlist.Not, netlist.And, netlist.Nand,
		netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Const0, netlist.Const1}
	checked := 0
	for _, typ := range types {
		for k := typ.MinFanin(); k <= 4; k++ {
			if max := typ.MaxFanin(); max >= 0 && k > max {
				break
			}
			// Compile a one-gate circuit so the Spec comes from Compile.
			c := netlist.New("gate")
			var fanin []netlist.GateID
			for i := 0; i < k; i++ {
				fanin = append(fanin, c.MustAddGate(gname("in", i), netlist.Input))
			}
			g := c.MustAddGate("g", typ, fanin...)
			if err := c.MarkOutput(g); err != nil {
				t.Fatal(err)
			}
			if err := c.Finalize(); err != nil {
				t.Fatal(err)
			}
			spec := faultsim.Compile(c).Spec(int32(g))
			vals := make([]logic.V, c.NumGates())
			in := make([]logic.V, k)
			total := 1
			for i := 0; i < k; i++ {
				total *= len(all)
			}
			for code := 0; code < total; code++ {
				for i, x := 0, code; i < k; i, x = i+1, x/len(all) {
					in[i] = all[x%len(all)]
					vals[fanin[i]] = in[i]
				}
				want := faultsim.EvalGate(typ, in)
				if got := evalSpec(spec, vals, -1, logic.X); got != want {
					t.Fatalf("%v%v: evalSpec %v, EvalGate %v", typ, in, got, want)
				}
				// The pin override must read exactly like the value it replaces.
				for pin := 0; pin < k; pin++ {
					saved := vals[fanin[pin]]
					vals[fanin[pin]] = logic.X
					if got := evalSpec(spec, vals, pin, saved); got != want {
						t.Fatalf("%v%v pin %d: evalSpec override %v, EvalGate %v", typ, in, pin, got, want)
					}
					vals[fanin[pin]] = saved
				}
				checked++
			}
		}
	}
	or3 := faultsim.EvalGate(netlist.Or, []logic.V{logic.D, logic.X, logic.DBar})
	if or3 != logic.X {
		t.Errorf("OR(D, X, D̄) = %v, want the folded X", or3)
	}
	t.Logf("%d gate evaluations checked", checked)
}

// FuzzPODEM generates a random small netlist, picks a fault and an
// optional base cube, and requires the incremental search and the
// full-pass reference to agree on cube, status and backtracks.
func FuzzPODEM(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20), uint16(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(8), uint8(60), uint16(33), uint8(3), uint8(9))
	f.Add(int64(42), uint8(2), uint8(5), uint16(7), uint8(1), uint8(200))
	f.Add(int64(-3), uint8(6), uint8(90), uint16(501), uint8(4), uint8(77))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates uint8, faultSel uint16, nDFF, baseSel uint8) {
		in := 1 + int(nIn)%8
		gates := 1 + int(nGates)%80
		dffs := int(nDFF) % 5
		c := randomCircuit(t, seed, in, gates, 1+int(seed&1), dffs)
		flist := faults.Universe(c)
		fault := flist[int(faultSel)%len(flist)]
		var base logic.Cube
		if baseSel%2 == 1 {
			r := rand.New(rand.NewSource(seed ^ int64(baseSel)))
			base = logic.NewCube(len(c.PseudoInputs()))
			for i := range base {
				if r.Intn(3) == 0 {
					base[i] = logic.FromBool(r.Intn(2) == 1)
				}
			}
		}
		limit := 1 + int(baseSel)%120
		pd, ref := newPodem(faultsim.Compile(c), limit, 0, nil), newRefPodem(c, limit)
		sameSearch(t, pd, ref, fault, base)
		// The engine is reused across faults: a second search on the same
		// instance must not see the first one's state.
		other := flist[(int(faultSel)+1)%len(flist)]
		sameSearch(t, pd, ref, other, nil)
	})
}
