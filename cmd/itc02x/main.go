// Command itc02x reproduces the paper's ITC'02 benchmark evaluation
// (Section 5.2): Table 3 (the per-core p34392 computation) and Table 4
// (the ten-SOC comparison).
//
// Usage:
//
//	itc02x                 # Table 3 and Table 4
//	itc02x -soc d695       # detailed report for one benchmark
//	itc02x -soc d695 -lint # design-rule preflight; refuse on errors
//	itc02x -emit p34392    # dump a benchmark in the .soc text format
//
// Observability (shared with atpgrun/socx/socd):
//
//	itc02x -trace run.jsonl  # structured JSONL event trace
//	itc02x -metrics          # end-of-run counters to stderr
//	itc02x -soc d695 -json   # machine-readable run manifest to stdout
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/itc02"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/report"
)

const prog = "itc02x"

func main() { os.Exit(run()) }

// run is the whole command; every return path has already flushed the
// trace sink and written the manifest.
func run() int {
	var (
		one     = flag.String("soc", "", "print the per-module detail of one benchmark SOC")
		emit    = flag.String("emit", "", "dump one benchmark SOC in the text format")
		lintPre = flag.Bool("lint", false, "preflight each benchmark SOC through the design-rule linter; refuse to run on errors")
		jsonOut = flag.Bool("json", false, "write the run manifest as JSON to stdout instead of the human tables")
	)
	var ob cli.Obs
	ob.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		cli.Errorf(prog, "unexpected arguments %v; see -help", flag.Args())
		return cli.ExitUsage
	}

	if *emit != "" {
		s, err := itc02.SOCByName(*emit)
		cli.Check(prog, err)
		fmt.Print(itc02.SOCString(s))
		return 0
	}

	ob.Start(prog)
	reg := ob.Registry()
	if *jsonOut && reg == nil {
		// The manifest embeds a metrics snapshot, so -json alone still
		// collects metrics (but no trace, no profile).
		reg = obs.NewRegistry()
	}

	man := obs.NewManifest(prog, 0)
	man.SetOption("lint", *lintPre)

	fail := func(code int, err error) int {
		cli.Errorf(prog, "%v", err)
		man.SetResult("error", err.Error())
		finish(&ob, man, reg, *jsonOut)
		return code
	}

	if *one != "" {
		man.SetOption("soc", *one)
		s, err := itc02.SOCByName(*one)
		if err != nil {
			return fail(cli.ExitRuntime, err)
		}
		if *lintPre {
			lr := lint.CheckSOC(s)
			if code := lintGate(man, lr); code != 0 {
				return fail(code, fmt.Errorf("%s failed lint with %d error(s); refusing to run", *one, lr.Count(lint.Error)))
			}
		}
		if err := s.CheckRange(); err != nil {
			return fail(cli.ExitRuntime, err)
		}
		r := s.Analyze()
		man.SetResult("modules", r.NumModules)
		man.SetResult("tdv_modular", r.TDVModular)
		man.SetResult("tdv_mono_opt", r.TDVMonoOpt)
		man.SetResult("penalty", r.Penalty)
		man.SetResult("benefit", r.Benefit)
		man.SetResult("reduction_vs_opt", r.ReductionVsOpt)
		if !*jsonOut {
			t := report.New(fmt.Sprintf("%s per-module TDV", s.Name),
				"Module", "I", "O", "B", "S", "T", "TDV")
			for _, m := range s.Modules() {
				t.AddRow(m.Name, fmt.Sprint(m.Inputs), fmt.Sprint(m.Outputs),
					fmt.Sprint(m.Bidirs), fmt.Sprint(m.ScanCells), fmt.Sprint(m.Patterns),
					report.Int(m.ModularTDV()))
			}
			t.AddFooter("SOC", "", "", "", "", "", report.Int(s.TDVModular()))
			fmt.Println(t.String())
			fmt.Printf("TDV_mono_opt %s   penalty %s   benefit %s   change %s\n",
				report.Int(r.TDVMonoOpt), report.Int(r.Penalty), report.Int(r.Benefit),
				report.Pct(r.ReductionVsOpt))
		}
		finish(&ob, man, reg, *jsonOut)
		return 0
	}

	// Full-evaluation mode: with -lint, preflight all ten benchmarks before
	// rendering anything.
	if *lintPre {
		socs, err := itc02.AllSOCs()
		if err != nil {
			return fail(cli.ExitRuntime, err)
		}
		errs := 0
		for _, s := range socs {
			lr := lint.CheckSOC(s)
			if code := lintGate(man, lr); code != 0 {
				errs += lr.Count(lint.Error)
			}
		}
		if errs > 0 {
			return fail(cli.ExitRuntime, fmt.Errorf("benchmark set failed lint with %d error(s); refusing to run", errs))
		}
	}

	t4, err := repro.RenderTable4()
	if err != nil {
		return fail(cli.ExitRuntime, err)
	}
	man.SetResult("tables", []string{"figure3", "table3", "table4"})
	if !*jsonOut {
		fmt.Println(repro.RenderFigure3())
		fmt.Println(repro.RenderTable3())
		fmt.Println(t4)
	}
	finish(&ob, man, reg, *jsonOut)
	return 0
}

// lintGate prints the preflight report to stderr, records the running
// totals on the manifest, and returns ExitRuntime when errors block.
func lintGate(man *obs.Manifest, lr *lint.Report) int {
	cli.Check(prog, lr.WriteText(os.Stderr))
	addResult(man, "lint_errors", lr.Count(lint.Error))
	addResult(man, "lint_warnings", lr.Count(lint.Warning))
	if lr.HasErrors() {
		return cli.ExitRuntime
	}
	return 0
}

// addResult accumulates an integer result key across multiple lint gates
// (the full-evaluation mode lints all ten benchmarks).
func addResult(man *obs.Manifest, key string, n int) {
	prev, _ := man.Results[key].(int)
	man.SetResult(key, prev+n)
}

// finish seals the manifest, emits it as the final trace event, shuts the
// observability stack down, and prints the manifest to stdout with -json.
func finish(ob *cli.Obs, man *obs.Manifest, reg *obs.Registry, jsonOut bool) {
	man.Finish(reg)
	ob.Stop(man)
	if jsonOut {
		cli.Check(prog, man.WriteJSON(os.Stdout))
	}
}
