package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/coopt"
	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/lint"
	"repro/internal/par"
)

// itc02_sweep runs the whole profile toolchain on each of the ten ITC'02
// SOCs: parse the serialized profile, lint it, analyze it (TDV Eqs. 1-8
// plus the Eq. 6 identity), sweep the wrapper/TAM co-optimizer over TAM
// widths 8-64 and encode the frontier. One op is one SOC; a pass is all
// ten, in an order drawn from the seed. coopt does nearly all the work and
// ATPG none, so a scheduler change shows here and a PODEM change must not.

const (
	sweepWorkers = 2
	sweepMinW    = 8
	sweepMaxW    = 64
	maxLBRatio   = 2.0 // the packer's proven bound on every ITC'02 SOC
)

// profile is one serialized ITC'02 SOC, the op's input.
type profile struct{ name, src string }

// sweepWidths are the swept TAM widths.
func sweepWidths() []int {
	var ws []int
	for w := sweepMinW; w <= sweepMaxW; w++ {
		ws = append(ws, w)
	}
	return ws
}

// profiles serializes the ten ITC'02 SOCs in the seed's order.
func profiles(seed int64) ([]profile, error) {
	socs, err := itc02.AllSOCs()
	if err != nil {
		return nil, err
	}
	out := make([]profile, len(socs))
	for i, k := range rand.New(rand.NewSource(seed)).Perm(len(socs)) {
		out[i] = profile{socs[k].Name, itc02.SOCString(socs[k])}
	}
	return out, nil
}

// sweepOut is what an op's output check compares.
type sweepOut struct {
	lint     *lint.Report
	report   core.Report
	frontier []byte
	points   []coopt.FrontierPoint
}

func (o sweepOut) String() string {
	rep, _ := json.Marshal(o.report) // a struct of numbers and strings always encodes
	return fmt.Sprintf("lint=%d/%d/%d report=%x frontier=%x",
		o.lint.Count(lint.Error), o.lint.Count(lint.Warning), o.lint.Count(lint.Info),
		sha256.Sum256(rep), sha256.Sum256(o.frontier))
}

// sweepOp runs one SOC through the toolchain: itc02 → lint → core → coopt.
func sweepOp(p profile) (sweepOut, error) {
	var out sweepOut
	s, err := itc02.ParseSOCString(p.src)
	if err != nil {
		return out, err
	}
	out.lint = lint.CheckSOCSource(p.name+".soc", p.src)
	out.report = s.Analyze()
	if err := s.VerifyIdentity(s.MaxPatterns()); err != nil {
		return out, err
	}
	if out.points, err = coopt.Sweep(s, sweepWidths(), sweepWorkers, 0); err != nil {
		return out, err
	}
	out.frontier, err = json.Marshal(out.points)
	return out, err
}

// checkSweep checks one op's outputs against the pins and the lb_ratio
// bound.
func (r *run) checkSweep(name string, out sweepOut, err error) {
	r.attempted++
	if err != nil {
		r.complain("%s: %v", name, err)
		r.failed++
		return
	}
	ok := r.check(name, out.String())
	for _, pt := range out.points {
		if pt.LBRatio > maxLBRatio {
			r.complain("%s: lb_ratio %.4f > %g at width %d", name, pt.LBRatio, maxLBRatio, pt.TAMWidth)
			ok = false
		}
	}
	if !ok {
		r.failed++
	}
}

func itc02Sweep(r *run) error {
	var ps []profile
	// Set-up is serializing the ten profiles and one checked warm-up pass.
	for i := 0; i < setupRepeats; i++ {
		err := r.setup(func() error {
			var err error
			if ps, err = profiles(r.seed); err != nil {
				return err
			}
			for _, p := range ps {
				out, err := sweepOp(p)
				r.checkSweep(p.name, out, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	plainPass := func() {
		p0 := now()
		var lat []float64
		for _, p := range ps {
			t0 := now()
			out, err := sweepOp(p)
			lat = append(lat, since(t0)*1e3)
			r.checkSweep(p.name, out, err)
		}
		r.slices = append(r.slices, newSlice(since(p0), lat))
	}
	if !r.trace {
		r.window(func() {
			for start := now(); since(start) < r.seconds; {
				plainPass()
			}
		})
		return nil
	}

	// Traced: half the time untraced as the overhead baseline, then whole
	// traced passes for the other half.
	t0 := now()
	for since(t0) < r.seconds/2 {
		plainPass()
	}
	plainOp := since(t0) / float64(r.ops())
	var ops, points int
	var lbSum float64
	var packs, configs int
	r.window(func() {
		for start := now(); since(start) < r.seconds/2 || ops == 0; {
			for _, p := range ps {
				ops++
				out, st, err := sweepTraced(r.tr, p, ops)
				r.checkSweep(p.name, out, err)
				for _, pt := range out.points {
					lbSum += pt.LBRatio
					points++
				}
				packs += st.packs
				configs += st.configs
			}
		}
	})
	n := float64(ops)
	spans := r.tr.snapshot()
	self := layerSelf(spans)
	for _, name := range []string{"itc02.parse", "lint.soc", "core.analyze", "coopt.staircase", "coopt.pack", "coopt.encode"} {
		r.layer(name+"_s", self[name]/n)
	}
	r.layer("coopt.packs", float64(packs)/n)
	r.layer("coopt.configs", float64(configs)/n)
	r.layer("coopt.lb_ratio_mean", lbSum/float64(points))
	r.layer("trace.coverage", coverage(spans))
	r.layer("trace.overhead_pct", (r.elapsed/n/plainOp-1)*100)
	r.gcLayers(n)
	return nil
}

// sweepStats counts one traced op's co-optimizer work.
type sweepStats struct{ packs, configs int }

// sweepTraced is sweepOp driven stage by stage, one span per call into
// each module. It rebuilds coopt.Sweep from its public parts —
// BuildCores once, then Pack per width on the same workers — and must
// produce the same frontier bytes.
func sweepTraced(tr *tracer, p profile, op int) (sweepOut, sweepStats, error) {
	var (
		out sweepOut
		st  sweepStats
		s   *core.SOC
		err error
	)
	root := tr.start("itc02."+p.name, 0, op)
	defer tr.end(root)
	if tr.do("itc02.parse", root, op, func() { s, err = itc02.ParseSOCString(p.src) }); err != nil {
		return out, st, err
	}
	tr.do("lint.soc", root, op, func() { out.lint = lint.CheckSOCSource(p.name+".soc", p.src) })
	tr.do("core.analyze", root, op, func() {
		out.report = s.Analyze()
		err = s.VerifyIdentity(s.MaxPatterns())
	})
	if err != nil {
		return out, st, err
	}
	var cores []coopt.Core
	if tr.do("coopt.staircase", root, op, func() { cores, err = coopt.BuildCores(s, sweepMaxW) }); err != nil {
		return out, st, err
	}
	for _, c := range cores {
		st.configs += len(c.Configs)
	}
	widths := sweepWidths()
	st.packs = len(widths)
	out.points = make([]coopt.FrontierPoint, len(widths))
	_, err = par.ForEach(nil, len(widths), sweepWorkers, func(i int) error {
		w := widths[i]
		sub := make([]coopt.Core, len(cores))
		for k, c := range cores {
			n := sort.Search(len(c.Configs), func(j int) bool { return c.Configs[j].Width > w })
			sub[k] = c
			sub[k].Configs = c.Configs[:n]
		}
		var pk *coopt.Packing
		var perr error
		if tr.do("coopt.pack", root, op, func() { pk, perr = coopt.Pack(sub, w, 0, nil) }); perr != nil {
			return perr
		}
		out.points[i] = coopt.FrontierPoint{
			TAMWidth: w, TotalTime: pk.TotalTime, LowerBound: pk.LowerBound,
			LBRatio: round4(pk.TotalTime, pk.LowerBound), TDVBits: pk.TDVBits,
			UsefulBits: pk.UsefulBits, IdleBits: pk.TDVBits - pk.UsefulBits,
			Utilization: round4(pk.UsefulBits, pk.TDVBits),
		}
		return nil
	})
	if err != nil {
		return out, st, err
	}
	// The Pareto flag: a width whose time beats every narrower width.
	best := int64(-1)
	for i := range out.points {
		if best < 0 || out.points[i].TotalTime < best {
			out.points[i].Pareto = true
			best = out.points[i].TotalTime
		}
	}
	tr.do("coopt.encode", root, op, func() { out.frontier, err = json.Marshal(out.points) })
	return out, st, err
}

// round4 is num/den rounded to four decimals. It mirrors the unexported
// ratio and round4 of internal/coopt/coopt.go, which report a frontier
// point's ratios the same way.
func round4(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(int64(float64(num)/float64(den)*10000+0.5)) / 10000
}
