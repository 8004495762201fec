// Package atpg implements automatic test pattern generation for single
// stuck-at faults on full-scan circuits: a PODEM (Path-Oriented DEcision
// Making) search engine with five-valued implication, D-frontier tracking,
// X-path checking and backtrack limiting, plus a generation loop with fault
// dropping, static test-cube compaction and reverse-order pattern pruning.
//
// The generator is the reproduction's stand-in for ATALANTA in the paper's
// experiments: it exhibits the generic ATPG properties the paper's analysis
// relies on (per-cone pattern generation, compaction of non-conflicting
// cubes, wide pattern-count variation between cones).
package atpg

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Status classifies the outcome of targeting one fault.
type Status uint8

const (
	// Detected: a test cube was found.
	Detected Status = iota
	// Redundant: the search space was exhausted; the fault is untestable.
	Redundant
	// Aborted: the backtrack limit was hit before a verdict.
	Aborted
	// ProvedRedundant: the fault was Aborted by the PODEM search and then
	// formally proven untestable by the SAT redundancy prover
	// (SettleAborted) — the good-vs-faulty miter is unsatisfiable. It is
	// distinguished from Redundant (search-space exhaustion inside the
	// backtrack budget) so accounting can show how much the formal layer
	// settled.
	ProvedRedundant
)

// String returns the lowercase name of s.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	case ProvedRedundant:
		return "proved-redundant"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// podem is the per-circuit search engine. It is reused across faults.
//
// Implication is incremental. values persists across one fault's search:
// imply undoes the trail back to the first stack position that changed
// since the last call and applies the remaining assignments one at a time,
// each propagated event-driven, level by level, through the compiled
// Program's combinational fanout. The D-frontier is scanned over the fault
// site's fanout cone only, once per implication, and the X-path check walks
// forward from the frontier instead of backward from every output.
type podem struct {
	c     *netlist.Circuit
	prog  *faultsim.Program
	specs []faultsim.GateSpec // compiled gate forms, indexed by gate
	ppis  []netlist.GateID
	piPos map[netlist.GateID]int // pseudo input -> cube position

	fault  faults.Fault
	dffPin bool // fault is a branch fault on a DFF data pin
	// Injection sites of the fault in the evaluation: the gate whose output
	// carries the faulty value (stem faults), and the gate and pin that see
	// a faulty branch value (branch faults off DFF data pins); -1 when none.
	stemGate, branchGate int32
	branchPin            int

	// base carries immutable pre-assignments for dynamic compaction: the
	// already-committed bits of the cube being extended. Nil outside
	// dynamic compaction.
	base logic.Cube

	backtracks int
	limit      int

	// Per-fault wall-clock budget (zero = unlimited). The deadline is
	// rearmed for every search; degraded reports whether the last search
	// was cut short by it rather than by the backtrack limit.
	budget   time.Duration
	deadline time.Time
	degraded bool

	// Search-effort counters (nil when observability is disabled).
	cBacktracks   *obs.Counter // atpg.backtracks
	cDecisions    *obs.Counter // atpg.decisions
	cImplications *obs.Counter // atpg.implications

	// Implication state. xstate is the fault-free all-X evaluation
	// (constants propagated), the starting point of every search. trail
	// records (gate, previous value) for every change since the search's
	// base state; marks[i] is the trail length before applied[i], the
	// assignment stack the current values reflect.
	values  []logic.V
	xstate  []logic.V
	trail   []undo
	applied []assignment
	marks   []int32
	buckets [][]int32 // per-level event queues

	// Fault-cone state: the combinational gates of the site's transitive
	// fanout in topological order, and the pseudo outputs among the site
	// and its fanout. df caches the D-frontier of the current values.
	pos     []int32 // topological position of each combinational gate
	ppo     []bool  // gate is in the pseudo-output frame
	cone    []int32
	conePPO []int32
	df      []int32
	dfValid bool

	// Epoch-stamped marks shared by event de-duplication, the cone walk
	// and the X-path search: gate g is marked iff stamp[g] == epoch.
	stamp []uint32
	epoch uint32
	walk  []int32 // DFS stack scratch
}

// undo is one trail entry: gate id held old before a change.
type undo struct {
	id  int32
	old logic.V
}

func newPodem(prog *faultsim.Program, limit int, budget time.Duration, col *obs.Collector) *podem {
	c := prog.Circuit()
	n := prog.NumGates()
	p := &podem{
		c:             c,
		prog:          prog,
		specs:         make([]faultsim.GateSpec, n),
		ppis:          prog.PPIs(),
		piPos:         make(map[netlist.GateID]int),
		limit:         limit,
		budget:        budget,
		cBacktracks:   col.Counter("atpg.backtracks"),
		cDecisions:    col.Counter("atpg.decisions"),
		cImplications: col.Counter("atpg.implications"),
		values:        make([]logic.V, n),
		xstate:        make([]logic.V, n),
		buckets:       make([][]int32, prog.NumLevels()),
		pos:           make([]int32, n),
		ppo:           make([]bool, n),
		stamp:         make([]uint32, n),
	}
	for i, id := range p.ppis {
		p.piPos[id] = i
	}
	for _, id := range prog.PPOs() {
		p.ppo[id] = true
	}
	for id := range p.specs {
		p.specs[id] = prog.Spec(int32(id))
	}
	for i := range p.xstate {
		p.xstate[i] = logic.X
	}
	for i, id := range prog.Order() {
		p.pos[id] = int32(i)
		p.xstate[id] = evalSpec(p.specs[id], p.xstate, -1, logic.X)
	}
	return p
}

// assignment is one decision on a pseudo input.
type assignment struct {
	pi      netlist.GateID
	value   logic.V
	flipped bool // the alternative value has already been tried
}

// run searches for a test cube detecting f. It returns the cube (over the
// PseudoInputs frame) and Detected, or nil and Redundant/Aborted.
func (p *podem) run(f faults.Fault) (logic.Cube, Status) {
	return p.runWithBase(f, nil)
}

// runWithBase searches for a test cube detecting f under the immutable
// pre-assignments in base (used by dynamic compaction to extend an
// existing cube with a secondary target). The returned cube includes the
// base bits. An exhausted search under a non-nil base means "not
// compatible with this cube", which is reported as Aborted, not Redundant:
// redundancy can only be proven by an unconstrained search.
func (p *podem) runWithBase(f faults.Fault, base logic.Cube) (logic.Cube, Status) {
	p.reset(f, base)
	p.backtracks = 0
	p.degraded = false
	if p.budget > 0 {
		// lintgo:allow GO002 FaultBudget is a wall-clock deadline by contract.
		p.deadline = time.Now().Add(p.budget)
	}

	var stack []assignment
	for {
		p.cImplications.Inc()
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
				if p.overLimit() {
					return nil, Aborted
				}
				continue
			}
			p.cDecisions.Inc()
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
			if p.overLimit() {
				return nil, Aborted
			}
		}
	}
}

// overLimit reports whether the search must abort: the backtrack limit is
// exceeded, or (graceful degradation) the per-fault time budget ran out.
// Budget exhaustion sets degraded so the caller can account for it.
func (p *podem) overLimit() bool {
	if p.backtracks > p.limit {
		return true
	}
	// lintgo:allow GO002 FaultBudget is a wall-clock deadline by contract.
	if p.budget > 0 && time.Now().After(p.deadline) {
		p.degraded = true
		return true
	}
	return false
}

// backtrack pops exhausted decisions and flips the deepest unflipped one.
// It reports done=true when the whole space is exhausted.
func (p *podem) backtrack(stack []assignment) ([]assignment, bool) {
	p.backtracks++
	p.cBacktracks.Inc()
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

type searchState uint8

const (
	searchOpen searchState = iota
	searchSuccess
	searchDead
)

// reset targets fault f under base and builds the search's base state:
// the all-X values with the fault injected and the base bits applied. It
// is computed once per search; the trail starts empty above it.
func (p *podem) reset(f faults.Fault, base logic.Cube) {
	p.fault = f
	p.dffPin = f.Pin != faults.StemPin && p.c.Gate(f.Gate).Type == netlist.DFF
	p.base = base
	p.stemGate, p.branchGate, p.branchPin = -1, -1, -1
	switch {
	case f.Pin == faults.StemPin:
		p.stemGate = int32(f.Gate)
	case !p.dffPin:
		p.branchGate, p.branchPin = int32(f.Gate), f.Pin
	}
	copy(p.values, p.xstate)
	p.trail, p.applied, p.marks = p.trail[:0], p.applied[:0], p.marks[:0]
	p.dfValid = false
	p.nextEpoch()
	if site := int32(f.Gate); !p.dffPin && p.specs[site].Kind != faultsim.OpSource {
		p.schedule(site) // re-evaluate a combinational site with the fault injected
	}
	for i, v := range p.base {
		if v.Binary() {
			p.setSource(int32(p.ppis[i]), v)
		}
	}
	p.propagate()
	p.trail = p.trail[:0]
	p.buildCone()
}

// imply brings the values up to date with the assignment stack: it undoes
// the trail back to the first position where stack differs from the stack
// it last applied, then applies the remaining assignments one at a time.
// The result equals a full five-valued forward implication of the base
// state plus stack, with the target fault injected.
func (p *podem) imply(stack []assignment) {
	p.dfValid = false
	i := 0
	for i < len(stack) && i < len(p.applied) &&
		stack[i].pi == p.applied[i].pi && stack[i].value == p.applied[i].value {
		i++
	}
	if i < len(p.applied) {
		mark := int(p.marks[i])
		for k := len(p.trail) - 1; k >= mark; k-- {
			p.values[p.trail[k].id] = p.trail[k].old
		}
		p.trail, p.applied, p.marks = p.trail[:mark], p.applied[:i], p.marks[:i]
	}
	for _, a := range stack[i:] {
		p.marks = append(p.marks, int32(len(p.trail)))
		p.applied = append(p.applied, assignment{pi: a.pi, value: a.value})
		p.nextEpoch()
		p.setSource(int32(a.pi), a.value)
		p.propagate()
	}
}

// setSource assigns a pseudo input, injecting a stem fault on it.
func (p *podem) setSource(id int32, v logic.V) {
	if id == p.stemGate {
		v = faultyValue(v, p.fault.Stuck)
	}
	p.set(id, v)
}

// set changes gate id to v, recording the old value on the trail and
// scheduling the gate's fanout.
func (p *podem) set(id int32, v logic.V) {
	if old := p.values[id]; old != v {
		p.trail = append(p.trail, undo{id, old})
		p.values[id] = v
		for _, g := range p.prog.Fanout(id) {
			p.schedule(g)
		}
	}
}

// schedule queues gate id for re-evaluation, at most once per epoch.
func (p *podem) schedule(id int32) {
	if p.stamp[id] != p.epoch {
		p.stamp[id] = p.epoch
		l := p.prog.Level(id)
		p.buckets[l] = append(p.buckets[l], id)
	}
}

// propagate drains the event queues in level order. A gate's fanout sits
// on strictly higher levels, so each level is final once reached.
func (p *podem) propagate() {
	for l := range p.buckets {
		for _, id := range p.buckets[l] {
			p.set(id, p.eval(id))
		}
		p.buckets[l] = p.buckets[l][:0]
	}
}

// nextEpoch invalidates every stamp mark in O(1) (O(n) on wrap-around).
func (p *podem) nextEpoch() {
	p.epoch++
	if p.epoch == 0 {
		for i := range p.stamp {
			p.stamp[i] = 0
		}
		p.epoch = 1
	}
}

// eval evaluates combinational gate id over the current values with the
// target fault injected: a faulty branch value on the fault's pin, or the
// faulty composite on the fault's output stem.
func (p *podem) eval(id int32) logic.V {
	var v logic.V
	if id == p.branchGate {
		pin := p.specs[id].Fanin[p.branchPin]
		v = evalSpec(p.specs[id], p.values, p.branchPin, faultyValue(p.values[pin], p.fault.Stuck))
	} else {
		v = evalSpec(p.specs[id], p.values, -1, logic.X)
	}
	if id == p.stemGate {
		v = faultyValue(v, p.fault.Stuck)
	}
	return v
}

// Five-valued truth tables of the two-input primitives, built from package
// logic so they are that algebra by construction.
var (
	and5, or5, xor5 [5][5]logic.V
	not5            [5]logic.V
)

func init() {
	for a := logic.Zero; a <= logic.DBar; a++ {
		not5[a] = logic.Not(a)
		for b := logic.Zero; b <= logic.DBar; b++ {
			and5[a][b], or5[a][b], xor5[a][b] = logic.And(a, b), logic.Or(a, b), logic.Xor(a, b)
		}
	}
}

// evalSpec evaluates one compiled gate over five-valued values, reading
// fanin j from vals[s.Fanin[j]] except pin, which reads pinV (pin -1: no
// override). Multi-input gates left-fold their two-input primitive from
// its identity, so an X collapses the running value at each step exactly
// as logic.AndN/OrN/XorN do — OR(D, X, D̄) is X, not 1.
func evalSpec(s faultsim.GateSpec, vals []logic.V, pin int, pinV logic.V) logic.V {
	var tab *[5][5]logic.V
	r := logic.Zero
	switch s.Kind {
	case faultsim.OpBuf:
		r = vals[s.Fanin[0]]
		if pin == 0 {
			r = pinV
		}
	case faultsim.OpAnd:
		tab, r = &and5, logic.One
	case faultsim.OpOr:
		tab = &or5
	case faultsim.OpXor:
		tab = &xor5
	case faultsim.OpConst:
	default:
		panic(fmt.Sprintf("atpg: evaluation of non-combinational gate kind %v", s.Kind))
	}
	if tab != nil {
		for j, f := range s.Fanin {
			v := vals[f]
			if j == pin {
				v = pinV
			}
			r = tab[r][v]
		}
	}
	if s.Invert {
		r = not5[r]
	}
	return r
}

// faultyValue maps the good value of the faulty line to its five-valued
// composite: X stays X; a good value equal to the stuck value shows no
// effect; the opposite good value becomes D (SA0 on a good 1) or D̄.
func faultyValue(good logic.V, stuck logic.V) logic.V {
	switch good {
	case logic.X:
		return logic.X
	case stuck:
		return stuck
	default:
		if stuck == logic.Zero {
			return logic.D
		}
		return logic.DBar
	}
}

// state classifies the current implication result.
func (p *podem) state() searchState {
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
	for _, id := range p.conePPO {
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
func (p *podem) siteValue() logic.V {
	if p.fault.Pin == faults.StemPin {
		return p.values[p.fault.Gate]
	}
	drv := p.c.Gate(p.fault.Gate).Fanin[p.fault.Pin]
	return faultyValue(p.values[drv], p.fault.Stuck)
}

// buildCone collects the fault site's combinational fanout cone — the only
// gates that can ever carry or receive a fault effect — in topological
// order, plus the pseudo outputs among the site and its cone.
func (p *podem) buildCone() {
	p.cone, p.conePPO = p.cone[:0], p.conePPO[:0]
	if p.dffPin {
		return // observed at the capture; no propagation search
	}
	site := int32(p.fault.Gate)
	p.nextEpoch()
	p.stamp[site] = p.epoch
	if p.ppo[site] {
		p.conePPO = append(p.conePPO, site)
	}
	if p.specs[site].Kind != faultsim.OpSource {
		p.cone = append(p.cone, site)
	}
	walk := append(p.walk[:0], site)
	for len(walk) > 0 {
		n := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		for _, g := range p.prog.Fanout(n) {
			if p.stamp[g] != p.epoch {
				p.stamp[g] = p.epoch
				p.cone = append(p.cone, g)
				if p.ppo[g] {
					p.conePPO = append(p.conePPO, g)
				}
				walk = append(walk, g)
			}
		}
	}
	p.walk = walk
	slices.SortFunc(p.cone, func(a, b int32) int { return cmp.Compare(p.pos[a], p.pos[b]) })
}

// dFrontier lists the gates with an X output and at least one faulty input
// (considering the injected branch value where applicable), in topological
// order. Only the fault cone can hold such gates. The list is computed once
// per implication.
func (p *podem) dFrontier() []int32 {
	if p.dfValid {
		return p.df
	}
	p.df = p.df[:0]
	for _, id := range p.cone {
		if p.values[id] != logic.X {
			continue
		}
		for j, fin := range p.specs[id].Fanin {
			v := p.values[fin]
			if id == p.branchGate && j == p.branchPin {
				v = faultyValue(v, p.fault.Stuck)
			}
			if v.Faulty() {
				p.df = append(p.df, id)
				break
			}
		}
	}
	p.dfValid = true
	return p.df
}

// xPathExists reports whether some D-frontier gate reaches a pseudo output
// through X-valued gates only. The search runs forward over the
// combinational fanout: only a still-undetermined observation point can
// ever show the fault effect, and a path through a DFF data pin ends at
// that pin's driver, itself an X pseudo output.
func (p *podem) xPathExists() bool {
	p.nextEpoch()
	walk := p.walk[:0]
	found := false
	for _, d := range p.dFrontier() {
		if found {
			break
		}
		if p.stamp[d] == p.epoch {
			continue
		}
		p.stamp[d] = p.epoch
		walk = append(walk[:0], d)
		for len(walk) > 0 {
			n := walk[len(walk)-1]
			walk = walk[:len(walk)-1]
			if p.ppo[n] {
				found = true
				break
			}
			for _, g := range p.prog.Fanout(n) {
				if p.values[g] == logic.X && p.stamp[g] != p.epoch {
					p.stamp[g] = p.epoch
					walk = append(walk, g)
				}
			}
		}
	}
	p.walk = walk
	return found
}

// nextObjective produces the next (pseudo input, value) decision via the
// standard PODEM objective/backtrace split.
func (p *podem) nextObjective() (netlist.GateID, logic.V, bool) {
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
	g := p.c.Gate(netlist.GateID(df[0]))
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

// nonControlling returns the input value that does not dominate the gate.
func nonControlling(t netlist.GateType) logic.V {
	switch t {
	case netlist.And, netlist.Nand:
		return logic.One
	case netlist.Or, netlist.Nor:
		return logic.Zero
	default: // XOR/XNOR/BUF/NOT: any value propagates
		return logic.Zero
	}
}

// backtrace walks an objective (line, value) backwards to an unassigned
// pseudo input, adjusting the target value through inversions.
func (p *podem) backtrace(line netlist.GateID, v logic.V) (netlist.GateID, logic.V, bool) {
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
