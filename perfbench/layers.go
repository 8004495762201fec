package main

import (
	"fmt"

	"repro/internal/obs"
)

// layerUnits lists every per-layer metric a traced run reports, with its
// unit; BENCHMARK.json's per_layer list mirrors it. Times and counts are
// per op of the traced window. A workload that never reaches a layer
// reports that layer's metrics as 0: README.md says which workload moves
// which metric.
var layerUnits = map[string]string{
	// Paper pipeline (live_soc).
	"bench89.generate_s":      "s",
	"faults.collapse_s":       "s",
	"atpg.core_s":             "s",
	"soc.flatten_s":           "s",
	"atpg.mono_s":             "s",
	"core.analyze_s":          "s",
	"atpg.random_s":           "s",
	"atpg.podem_s":            "s",
	"atpg.compact_s":          "s",
	"atpg.us_per_implication": "us",
	"atpg.implications":       "count/op",
	"atpg.decisions":          "count/op",
	"atpg.backtracks":         "count/op",
	"atpg.targeted":           "count/op",
	"atpg.aborted":            "count/op",
	"atpg.useful_ratio":       "ratio",
	"faultsim.patterns":       "count/op",
	"faultsim.batches":        "count/op",

	// ITC'02 profile toolchain (itc02_sweep).
	"itc02.parse_s":       "s",
	"lint.soc_s":          "s",
	"coopt.staircase_s":   "s",
	"coopt.pack_s":        "s",
	"coopt.encode_s":      "s",
	"coopt.packs":         "count/op",
	"coopt.configs":       "count/op",
	"coopt.lb_ratio_mean": "ratio",

	// Read path (serve_hot).
	"srv.hit_ms.tdv":      "ms",
	"srv.hit_ms.schedule": "ms",
	"srv.hit_ms.lint":     "ms",
	"srv.hit_ms.atpg":     "ms",
	"srv.key_ms.tdv":      "ms",
	"srv.key_ms.schedule": "ms",
	"srv.key_ms.lint":     "ms",
	"srv.key_ms.atpg":     "ms",
	"store.get_ms":        "ms",
	"store.hit_ratio":     "ratio",

	// Write path (the write-path phase of serve_hot's traced run).
	"srv.service_ms.tdv":      "ms",
	"srv.service_ms.schedule": "ms",
	"srv.service_ms.lint":     "ms",
	"srv.service_ms.atpg":     "ms",
	"srv.queuewait_ms.p50":    "ms",
	"srv.queuewait_ms.p95":    "ms",
	"runctl.fsync_ms":         "ms",
	"store.puts":              "count/op",
	"store.evictions":         "count/op",
	"srv.jobs.executed":       "count/op",
	"srv.jobs.failed":         "count/op",

	// Every workload.
	"go.gc_cycles":       "count/op",
	"go.gc_pause_ms":     "ms/op",
	"trace.coverage":     "ratio",
	"trace.overhead_pct": "%",
}

// completeLayers checks that a traced run set only known layer metrics and
// fills the layers its workload does not reach with 0.
func completeLayers(m metrics) error {
	for name := range m {
		if _, ok := layerUnits[name]; !ok {
			return fmt.Errorf("unknown per-layer metric %q", name)
		}
	}
	for name, unit := range layerUnits {
		if _, ok := m[name]; !ok {
			m.set(name, 0, unit)
		}
	}
	return nil
}

// layer sets a per-layer metric with its registered unit.
func (r *run) layer(name string, v float64) { r.layers.set(name, v, layerUnits[name]) }

// timerSec is the total seconds an obs timer recorded.
func timerSec(s obs.Snapshot, name string) float64 { return s.Timers[name].TotalSec }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
