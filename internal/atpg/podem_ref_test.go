package atpg

import (
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// refPodem is the full-pass PODEM the incremental search replaced, kept
// verbatim (minus the time budget and the counters) as the differential
// reference: every implication resets all values to X and re-evaluates the
// whole circuit in topological order with faultsim.EvalGate, and the
// D-frontier and X-path checks are full passes too. The search loop, objective and
// backtrace are the same algorithm, so for every fault and base cube the
// two must return the identical cube, status and backtrack count.
type refPodem struct {
	c      *netlist.Circuit
	values []logic.V
	ppis   []netlist.GateID
	ppos   []netlist.GateID
	piPos  map[netlist.GateID]int

	fault  faults.Fault
	dffPin bool
	base   logic.Cube

	backtracks int
	limit      int

	scratch []logic.V
	xreach  []bool
	xmark   []bool
}

func newRefPodem(c *netlist.Circuit, limit int) *refPodem {
	p := &refPodem{
		c:      c,
		values: make([]logic.V, c.NumGates()),
		ppis:   c.PseudoInputs(),
		ppos:   c.PseudoOutputs(),
		piPos:  make(map[netlist.GateID]int),
		limit:  limit,
		xreach: make([]bool, c.NumGates()),
		xmark:  make([]bool, c.NumGates()),
	}
	for i, id := range p.ppis {
		p.piPos[id] = i
	}
	return p
}

// run searches for a test cube detecting f. It returns the cube (over the
// PseudoInputs frame) and Detected, or nil and Redundant/Aborted.
func (p *refPodem) run(f faults.Fault) (logic.Cube, Status) {
	return p.runWithBase(f, nil)
}

// runWithBase searches for a test cube detecting f under the immutable
// pre-assignments in base (used by dynamic compaction to extend an
// existing cube with a secondary target). The returned cube includes the
// base bits. An exhausted search under a non-nil base means "not
// compatible with this cube", which is reported as Aborted, not Redundant:
// redundancy can only be proven by an unconstrained search.
func (p *refPodem) runWithBase(f faults.Fault, base logic.Cube) (logic.Cube, Status) {
	p.fault = f
	p.dffPin = f.Pin != faults.StemPin && p.c.Gate(f.Gate).Type == netlist.DFF
	p.base = base
	p.backtracks = 0

	var stack []assignment
	for {
		p.imply(stack)
		switch p.state() {
		case searchSuccess:
			cube := logic.NewCube(len(p.ppis))
			if base != nil {
				copy(cube, base)
			}
			for _, a := range stack {
				cube[p.piPos[a.pi]] = a.value
			}
			return cube, Detected
		case searchOpen:
			pi, v, ok := p.nextObjective()
			if !ok {
				// No way to make progress from here: treat as a dead end.
				var done bool
				stack, done = p.backtrack(stack)
				if done {
					if p.base != nil {
						return nil, Aborted
					}
					return nil, Redundant
				}
				if p.backtracks > p.limit {
					return nil, Aborted
				}
				continue
			}
			stack = append(stack, assignment{pi: pi, value: v})
		case searchDead:
			var done bool
			stack, done = p.backtrack(stack)
			if done {
				if p.base != nil {
					return nil, Aborted
				}
				return nil, Redundant
			}
			if p.backtracks > p.limit {
				return nil, Aborted
			}
		}
	}
}

// backtrack pops exhausted decisions and flips the deepest unflipped one.
// It reports done=true when the whole space is exhausted.
func (p *refPodem) backtrack(stack []assignment) ([]assignment, bool) {
	p.backtracks++
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if !top.flipped {
			top.flipped = true
			top.value = logic.Not(top.value)
			return stack, false
		}
		stack = stack[:len(stack)-1]
	}
	return stack, true
}

// imply performs full five-valued forward implication with the target fault
// injected, over the current partial input assignment.
func (p *refPodem) imply(stack []assignment) {
	for i := range p.values {
		p.values[i] = logic.X
	}
	if p.base != nil {
		for i, v := range p.base {
			if v.Binary() {
				p.values[p.ppis[i]] = v
			}
		}
	}
	for _, a := range stack {
		p.values[a.pi] = a.value
	}
	// Inject at a source site (PI or DFF output stem fault).
	if p.fault.Pin == faults.StemPin {
		g := p.c.Gate(p.fault.Gate)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			p.values[p.fault.Gate] = faultyValue(p.values[p.fault.Gate], p.fault.Stuck)
		}
	}
	for _, id := range p.c.TopoOrder() {
		g := p.c.Gate(id)
		if cap(p.scratch) < len(g.Fanin) {
			p.scratch = make([]logic.V, len(g.Fanin))
		}
		in := p.scratch[:len(g.Fanin)]
		for j, fin := range g.Fanin {
			in[j] = p.values[fin]
			// Branch fault on pin j of this gate: the gate sees the
			// faulty branch value.
			if !p.dffPin && p.fault.Pin == j && p.fault.Gate == id {
				in[j] = faultyValue(in[j], p.fault.Stuck)
			}
		}
		v := faultsim.EvalGate(g.Type, in)
		// Stem fault on a combinational gate: the line downstream of the
		// gate carries the faulty composite value.
		if p.fault.Pin == faults.StemPin && p.fault.Gate == id {
			v = faultyValue(v, p.fault.Stuck)
		}
		p.values[id] = v
	}
}

// state classifies the current implication result.
func (p *refPodem) state() searchState {
	if p.dffPin {
		// Detection happens at the DFF capture: the driver's good value
		// must be the complement of the stuck value.
		drv := p.c.Gate(p.fault.Gate).Fanin[p.fault.Pin]
		v := p.values[drv]
		switch {
		case v == logic.Not(p.fault.Stuck):
			return searchSuccess
		case v == p.fault.Stuck:
			return searchDead
		default:
			return searchOpen
		}
	}
	for _, id := range p.ppos {
		if p.values[id].Faulty() {
			return searchSuccess
		}
	}
	// Activation check.
	site := p.siteValue()
	switch {
	case site.Faulty():
		// Activated: dead only if the D-frontier is empty or no X-path
		// remains to any observation point.
		if len(p.dFrontier()) == 0 {
			return searchDead
		}
		if !p.xPathExists() {
			return searchDead
		}
		return searchOpen
	case site == logic.X:
		return searchOpen
	default:
		// The faulty line settled at the stuck value: no activation
		// possible under this assignment.
		return searchDead
	}
}

// siteValue returns the current composite value on the faulty line.
func (p *refPodem) siteValue() logic.V {
	if p.fault.Pin == faults.StemPin {
		return p.values[p.fault.Gate]
	}
	drv := p.c.Gate(p.fault.Gate).Fanin[p.fault.Pin]
	return faultyValue(p.values[drv], p.fault.Stuck)
}

// dFrontier lists gates with an X output and at least one faulty input
// (considering the injected branch value where applicable).
func (p *refPodem) dFrontier() []netlist.GateID {
	var df []netlist.GateID
	for _, id := range p.c.TopoOrder() {
		if p.values[id] != logic.X {
			continue
		}
		g := p.c.Gate(id)
		for j, fin := range g.Fanin {
			v := p.values[fin]
			if !p.dffPin && p.fault.Pin == j && p.fault.Gate == id {
				v = faultyValue(v, p.fault.Stuck)
			}
			if v.Faulty() {
				df = append(df, id)
				break
			}
		}
	}
	return df
}

// xPathExists reports whether some D-frontier gate reaches a pseudo output
// through X-valued gates only.
func (p *refPodem) xPathExists() bool {
	for i := range p.xreach {
		p.xreach[i] = false
		p.xmark[i] = false
	}
	for _, id := range p.ppos {
		// Only a still-undetermined observation point can ever show the
		// fault effect; binary outputs are frozen under further refinement.
		if p.values[id] == logic.X {
			p.markObserved(id)
		}
	}
	for _, id := range p.dFrontier() {
		if p.xreach[id] {
			return true
		}
	}
	return false
}

// markObserved marks id and, transitively backwards over X-valued gates,
// everything that can still steer a fault effect to an observation point.
// We approximate by a forward reachability instead: from each X gate we ask
// whether an X path leads to a pseudo output. To keep it linear we compute
// reverse reachability from observed points across X-valued gates.
func (p *refPodem) markObserved(id netlist.GateID) {
	stack := []netlist.GateID{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.xmark[n] {
			continue
		}
		p.xmark[n] = true
		p.xreach[n] = true
		for _, fin := range p.c.Gate(n).Fanin {
			if p.values[fin] == logic.X && !p.xmark[fin] {
				stack = append(stack, fin)
			}
		}
	}
}

// nextObjective produces the next (pseudo input, value) decision via the
// standard PODEM objective/backtrace split.
func (p *refPodem) nextObjective() (netlist.GateID, logic.V, bool) {
	site := p.siteValue()
	if !site.Faulty() {
		// Objective 1: activate the fault — drive the faulty line's good
		// value to the complement of the stuck value.
		var line netlist.GateID
		if p.fault.Pin == faults.StemPin {
			line = p.fault.Gate
		} else {
			line = p.c.Gate(p.fault.Gate).Fanin[p.fault.Pin]
		}
		return p.backtrace(line, logic.Not(p.fault.Stuck))
	}
	// Objective 2: advance the D-frontier — set an X input of a frontier
	// gate to the gate's non-controlling value.
	df := p.dFrontier()
	if len(df) == 0 {
		return 0, logic.X, false
	}
	g := p.c.Gate(df[0])
	for j, fin := range g.Fanin {
		if p.values[fin] != logic.X {
			continue
		}
		if !p.dffPin && p.fault.Pin == j && p.fault.Gate == g.ID {
			continue // the faulty branch is not assignable
		}
		return p.backtrace(fin, nonControlling(g.Type))
	}
	return 0, logic.X, false
}

// backtrace walks an objective (line, value) backwards to an unassigned
// pseudo input, adjusting the target value through inversions.
func (p *refPodem) backtrace(line netlist.GateID, v logic.V) (netlist.GateID, logic.V, bool) {
	for {
		g := p.c.Gate(line)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			if p.values[line] != logic.X {
				return 0, logic.X, false // already assigned: objective stuck
			}
			return line, v, true
		}
		switch g.Type {
		case netlist.Buf:
			line = g.Fanin[0]
		case netlist.Not:
			line = g.Fanin[0]
			v = logic.Not(v)
		case netlist.Const0, netlist.Const1:
			return 0, logic.X, false // constants cannot be steered
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			inv := g.Type == netlist.Nand || g.Type == netlist.Nor
			u := v
			if inv {
				u = logic.Not(v)
			}
			ctrl := logic.Zero // controlling value of the AND family
			if g.Type == netlist.Or || g.Type == netlist.Nor {
				ctrl = logic.One
			}
			next := netlist.InvalidGate
			if u == ctrl {
				// One controlling input suffices: pick the easiest
				// (lowest level) unassigned input.
				best := -1
				for _, fin := range g.Fanin {
					if p.values[fin] != logic.X {
						continue
					}
					if l := p.c.Level(fin); best < 0 || l < best {
						best = l
						next = fin
					}
				}
			} else {
				// All inputs must be non-controlling: attack the hardest
				// (highest level) unassigned input first.
				best := -1
				for _, fin := range g.Fanin {
					if p.values[fin] != logic.X {
						continue
					}
					if l := p.c.Level(fin); l > best {
						best = l
						next = fin
					}
				}
			}
			if next == netlist.InvalidGate {
				return 0, logic.X, false
			}
			line = next
			v = u
		case netlist.Xor, netlist.Xnor:
			// Choose the first unassigned input; required value depends on
			// the parity of the assigned inputs, assuming the remaining X
			// inputs settle at 0.
			parity := logic.Zero
			next := netlist.InvalidGate
			for _, fin := range g.Fanin {
				if p.values[fin] == logic.X {
					if next == netlist.InvalidGate {
						next = fin
					}
					continue
				}
				parity = logic.Xor(parity, p.values[fin].Good())
			}
			if next == netlist.InvalidGate {
				return 0, logic.X, false
			}
			want := logic.Xor(v, parity)
			if g.Type == netlist.Xnor {
				want = logic.Not(want)
			}
			if !want.Binary() {
				want = logic.Zero
			}
			line = next
			v = want
		default:
			return 0, logic.X, false
		}
	}
}
