package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/soc"
)

// live_soc runs the paper's Tables 1-2 pipeline as `socx -live` does:
// repro.LiveSOC1 then repro.LiveSOC2 at GateScale 1 with 2 workers and
// default ATPG options. One op is one SOC experiment; a pass is both. The
// inputs are the paper's fixed designs, so the seed only chooses which SOC
// runs first in every pass.

// liveWorkers is the per-core and fault-simulation concurrency.
const liveWorkers = 2

// liveSOCs are the two experiments, with the cores live.go builds them from.
var liveSOCs = []struct {
	name  string
	cores []string
	run   func(repro.LiveOptions) (*repro.LiveResult, error)
}{
	{"SOC1", []string{"s713", "s953", "s1423", "s1423", "s1423"}, repro.LiveSOC1},
	{"SOC2", []string{"s953", "s5378", "s13207", "s15850"}, repro.LiveSOC2},
}

// liveOut is what an op's output check compares: per-core T_i and
// coverage, T_mono, Equation 2 and a digest of the TDV report.
type liveOut struct {
	patterns  []int
	coverages []float64
	tmono     int
	monoCov   float64
	maxCoreT  int
	report    core.Report
}

func (o liveOut) String() string {
	cov := make([]string, len(o.coverages))
	for i, c := range o.coverages {
		cov[i] = fmt.Sprintf("%.6f", c)
	}
	rep, _ := json.Marshal(o.report) // a struct of numbers and strings always encodes
	return fmt.Sprintf("T=%v Tmono=%d cov=%v mono_cov=%.6f eq2=%v report=%x",
		o.patterns, o.tmono, cov, o.monoCov, o.tmono >= o.maxCoreT, sha256.Sum256(rep))
}

func fromLiveResult(res *repro.LiveResult) liveOut {
	o := liveOut{tmono: res.TMono, monoCov: res.MonoCoverage, maxCoreT: res.MaxCoreT, report: res.Report}
	for _, c := range res.Cores {
		o.patterns = append(o.patterns, c.Patterns)
		o.coverages = append(o.coverages, c.Coverage)
	}
	return o
}

func liveSOC(r *run) error {
	order := []int{0, 1}
	if r.seed%2 != 0 {
		order = []int{1, 0}
	}
	// Set-up is generating every stand-in core and both flattened SOCs,
	// the inputs of the per-core and monolithic ATPG stages.
	for i := 0; i < setupRepeats; i++ {
		err := r.setup(func() error {
			for _, s := range liveSOCs {
				cs, err := liveCores(s.cores, nil, 0, 0)
				if err != nil {
					return err
				}
				if _, err := soc.Flatten(s.name+"-flat", cs, liveFlatten); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	opts := repro.LiveOptions{GateScale: 1, Workers: liveWorkers}
	// pass runs one op per SOC and returns their latencies; with a
	// collector it drives the stages itself under the tracer.
	pass := func(col *obs.Collector, passNo int) (lat []float64, err error) {
		for _, k := range order {
			s := liveSOCs[k]
			t0 := now()
			var out liveOut
			if col != nil {
				out, err = liveTraced(r.tr, col, k, passNo*len(order)+k+1)
			} else {
				var res *repro.LiveResult
				if res, err = s.run(opts); err == nil {
					out = fromLiveResult(res)
				}
			}
			if err != nil {
				return nil, err
			}
			lat = append(lat, since(t0)*1e3)
			r.attempted++
			if !r.check(s.name, out.String()) {
				r.failed++
			}
		}
		return lat, nil
	}
	if r.trace {
		return liveTracedRun(r, pass)
	}
	var err error
	r.window(func() {
		var passS float64
		// Whole passes, ending within half a pass of the window's length.
		for start := now(); err == nil && (passS == 0 || since(start)+passS/2 <= r.seconds); {
			p0 := now()
			var lat []float64
			lat, err = pass(nil, 0)
			passS = since(p0)
			r.slices = append(r.slices, newSlice(passS, lat))
		}
	})
	return err
}

// liveTracedRun times one untraced pass as the overhead baseline, then
// drives the stages itself for one traced pass and reports the layers.
func liveTracedRun(r *run, pass func(*obs.Collector, int) ([]float64, error)) error {
	t0 := now()
	if _, err := pass(nil, 0); err != nil {
		return err
	}
	plain := since(t0)
	col := obs.New(obs.NewRegistry(), nil)
	var err error
	r.window(func() { _, err = pass(col, 1) })
	if err != nil {
		return err
	}
	ops := float64(len(liveSOCs))
	spans := r.tr.snapshot()
	self := layerSelf(spans)
	for _, name := range []string{"bench89.generate", "faults.collapse", "atpg.core", "soc.flatten", "atpg.mono", "core.analyze"} {
		r.layer(name+"_s", self[name]/ops)
	}
	snap := col.Metrics().Snapshot()
	podem := timerSec(snap, "atpg.phase.podem")
	r.layer("atpg.random_s", timerSec(snap, "atpg.phase.random")/ops)
	r.layer("atpg.podem_s", podem/ops)
	r.layer("atpg.compact_s", timerSec(snap, "atpg.phase.compact")/ops)
	impl := float64(snap.Counters["atpg.implications"])
	r.layer("atpg.us_per_implication", ratio(podem*1e6, impl))
	r.layer("atpg.implications", impl/ops)
	r.layer("atpg.decisions", float64(snap.Counters["atpg.decisions"])/ops)
	r.layer("atpg.backtracks", float64(snap.Counters["atpg.backtracks"])/ops)
	targeted := float64(snap.Counters["atpg.faults.targeted"])
	r.layer("atpg.targeted", targeted/ops)
	r.layer("atpg.aborted", float64(snap.Counters["atpg.aborted"])/ops)
	r.layer("atpg.useful_ratio", ratio(float64(snap.Counters["atpg.detected.deterministic"]), targeted))
	r.layer("faultsim.patterns", float64(snap.Counters["faultsim.patterns.applied"])/ops)
	r.layer("faultsim.batches", float64(snap.Counters["faultsim.batches"])/ops)
	r.layer("trace.coverage", coverage(spans))
	r.layer("trace.overhead_pct", (r.elapsed/plain-1)*100)
	r.gcLayers(ops)
	return nil
}

// liveFlatten are the flattening settings live.go uses by default.
var liveFlatten = soc.FlattenOptions{Seed: 0, InterconnectFraction: 0.45}

// liveCores generates a SOC's stand-in cores the way live.go does at
// GateScale 1: instance i of a profile gets seed offset i·1013. With a
// tracer it records one bench89.generate span per core under parent.
func liveCores(names []string, tr *tracer, parent, op int) ([]*netlist.Circuit, error) {
	var out []*netlist.Circuit
	for i, cn := range names {
		prof, ok := bench89.ProfileByName(cn)
		if !ok {
			return nil, fmt.Errorf("unknown core %q", cn)
		}
		prof.Seed += int64(i) * 1013
		if min := prof.Outputs + 8; prof.Gates < min {
			prof.Gates = min
		}
		var (
			c   *netlist.Circuit
			err error
		)
		if tr != nil {
			tr.do("bench89.generate", parent, op, func() { c, err = bench89.Generate(prof) })
		} else {
			c, err = bench89.Generate(prof)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// liveTraced runs SOC k's experiment stage by stage through the modules'
// public functions, one span per call, and returns the same outputs
// repro.LiveSOC1/LiveSOC2 produce.
func liveTraced(tr *tracer, col *obs.Collector, k, op int) (liveOut, error) {
	s := liveSOCs[k]
	root := tr.start("live."+s.name, 0, op)
	defer tr.end(root)
	ctx := context.Background()
	circuits, err := liveCores(s.cores, tr, root, op)
	if err != nil {
		return liveOut{}, err
	}
	opts := atpg.DefaultOptions()
	opts.Workers = liveWorkers
	var out liveOut
	type coreRun struct {
		res *atpg.Result
		reg *obs.Registry
	}
	runs := make([]coreRun, len(circuits))
	_, err = par.ForEach(ctx, len(circuits), liveWorkers, func(i int) error {
		var flist []faults.Fault
		tr.do("faults.collapse", root, op, func() { flist = faults.CollapsedUniverse(circuits[i]) })
		o := opts
		o.Obs, runs[i].reg = col.Fork()
		var rerr error
		tr.do("atpg.core", root, op, func() { runs[i].res, rerr = atpg.GenerateForFaultsContext(ctx, circuits[i], flist, o) })
		return rerr
	})
	for _, cr := range runs {
		col.Metrics().Merge(cr.reg)
	}
	if err != nil {
		return liveOut{}, err
	}
	var flat *netlist.Circuit
	tr.do("soc.flatten", root, op, func() { flat, err = soc.Flatten(s.name+"-flat", circuits, liveFlatten) })
	if err != nil {
		return liveOut{}, err
	}
	var flist []faults.Fault
	tr.do("faults.collapse", root, op, func() { flist = faults.CollapsedUniverse(flat) })
	o := opts
	o.Obs = col
	var mono *atpg.Result
	tr.do("atpg.mono", root, op, func() { mono, err = atpg.GenerateForFaultsContext(ctx, flat, flist, o) })
	if err != nil {
		return liveOut{}, err
	}
	out.tmono, out.monoCov = mono.PatternCount(), mono.Coverage
	tr.do("core.analyze", root, op, func() {
		fs := flat.ComputeStats()
		top := &core.Module{
			Name:                  "Top",
			Params:                core.Params{Inputs: fs.Inputs, Outputs: fs.Outputs},
			PortsTesterAccessible: true,
		}
		for i, c := range circuits {
			st := c.ComputeStats()
			t := runs[i].res.PatternCount()
			out.patterns = append(out.patterns, t)
			out.coverages = append(out.coverages, runs[i].res.Coverage)
			out.maxCoreT = max(out.maxCoreT, t)
			top.Children = append(top.Children, &core.Module{
				Name:   fmt.Sprintf("Core%d(%s)", i+1, s.cores[i]),
				Params: core.Params{Inputs: st.Inputs, Outputs: st.Outputs, ScanCells: st.DFFs, Patterns: t},
			})
		}
		model := &core.SOC{Name: s.name + "-live", Top: top, TMono: out.tmono}
		out.report = model.Analyze()
	})
	return out, nil
}
