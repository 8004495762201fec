// Command tdvcalc computes the monolithic-vs-modular test data volume
// comparison of Sinanoglu & Marinissen (DATE 2008) for an SOC description.
//
// Usage:
//
//	tdvcalc -f design.soc [-tmono N]
//	tdvcalc -builtin p34392
//	tdvcalc -f design.soc -lint    # design-rule preflight; refuse on errors
//
// The input format is the line-oriented SOC description of internal/itc02
// (run with -example to print a template). -builtin accepts any of the ten
// ITC'02 Table 4 SOC names.
//
// Observability (shared with atpgrun/socx/socd):
//
//	tdvcalc -builtin p34392 -trace run.jsonl  # structured JSONL event trace
//	tdvcalc -builtin p34392 -metrics          # end-of-run counters to stderr
//	tdvcalc -builtin p34392 -json             # machine-readable run manifest to stdout
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/report"
)

const prog = "tdvcalc"

func main() { os.Exit(run()) }

// run is the whole command; every return path has already flushed the
// trace sink and written the manifest.
func run() int {
	var (
		file    = flag.String("f", "", "SOC description file (- for stdin)")
		builtin = flag.String("builtin", "", "built-in ITC'02 SOC name (e.g. p34392)")
		tmono   = flag.Int("tmono", -1, "override the monolithic pattern count")
		example = flag.Bool("example", false, "print an example SOC description and exit")
		lintPre = flag.Bool("lint", false, "preflight the SOC through the design-rule linter; refuse to run on errors")
		jsonOut = flag.Bool("json", false, "write the run manifest as JSON to stdout instead of the human report")
	)
	var ob cli.Obs
	ob.Register(flag.CommandLine)
	flag.Parse()

	if *example {
		fmt.Print(itc02.SOCString(itc02.P34392()))
		return 0
	}
	if *file == "" && *builtin == "" {
		cli.Errorf(prog, "need -f <file> or -builtin <name>; see -help")
		return cli.ExitUsage
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
	if *tmono >= 0 {
		man.SetOption("tmono", *tmono)
	}

	fail := func(code int, err error) int {
		cli.Errorf(prog, "%v", err)
		man.SetResult("error", err.Error())
		finish(&ob, man, reg, *jsonOut)
		return code
	}

	// Source-level preflight for files: lint before parsing so a broken
	// input reports the full set of findings, not the parser's first error.
	if *lintPre && *file != "" && *file != "-" {
		lr, lerr := lint.CheckSOCFile(*file)
		if lerr != nil {
			return fail(cli.ExitRuntime, lerr)
		}
		if code := lintGate(man, lr); code != 0 {
			return fail(code, fmt.Errorf("%s failed lint with %d error(s); refusing to run", *file, lr.Count(lint.Error)))
		}
	}

	var (
		s   *core.SOC
		err error
	)
	switch {
	case *builtin != "":
		man.SetOption("soc", *builtin)
		s, err = itc02.SOCByName(*builtin)
	case *file == "-":
		man.SetOption("soc", "stdin")
		s, err = itc02.ParseSOC(os.Stdin)
	default:
		man.SetOption("soc", *file)
		var f *os.File
		f, err = os.Open(*file)
		if err == nil {
			defer f.Close()
			s, err = itc02.ParseSOC(f)
		}
	}
	if err != nil {
		return fail(cli.ExitRuntime, err)
	}
	if *tmono >= 0 {
		s.TMono = *tmono
	}

	// Structural preflight for inputs with no backing source (builtins and
	// stdin): the bookkeeping and TDV-precondition rules still apply.
	if *lintPre && (*builtin != "" || *file == "-") {
		lr := lint.CheckSOC(s)
		if code := lintGate(man, lr); code != 0 {
			return fail(code, fmt.Errorf("SOC failed lint with %d error(s); refusing to run", lr.Count(lint.Error)))
		}
	}

	// With or without -lint: out-of-range counts would print wrapped volumes.
	if err := s.CheckRange(); err != nil {
		return fail(cli.ExitRuntime, err)
	}

	r := s.Analyze()
	man.SetResult("modules", r.NumModules)
	man.SetResult("cores", r.NumCores)
	man.SetResult("t_max", r.TMax)
	man.SetResult("norm_stdev", r.NormStdev)
	man.SetResult("tdv_modular", r.TDVModular)
	man.SetResult("tdv_mono_opt", r.TDVMonoOpt)
	man.SetResult("penalty", r.Penalty)
	man.SetResult("benefit", r.Benefit)
	man.SetResult("reduction_vs_opt", r.ReductionVsOpt)
	if r.TDVMonoAct > 0 {
		man.SetResult("tdv_mono_act", r.TDVMonoAct)
		man.SetResult("ratio_vs_actual", r.RatioVsActual)
		man.SetResult("pessimism_factor", r.PessimismFactor)
	}

	if !*jsonOut {
		t := report.New("Per-module test data volume (Eq. 4/5)",
			"Module", "I", "O", "B", "S", "T", "ISOCOST", "TDV")
		for _, m := range s.Modules() {
			t.AddRow(m.Name,
				fmt.Sprint(m.Inputs), fmt.Sprint(m.Outputs), fmt.Sprint(m.Bidirs),
				fmt.Sprint(m.ScanCells), fmt.Sprint(m.Patterns),
				report.Int(m.ISOCost()), report.Int(m.ModularTDV()))
		}
		t.AddFooter("SOC (modular)", "", "", "", "", "", "", report.Int(r.TDVModular))
		fmt.Println(t.String())

		fmt.Printf("modules: %d (%d cores + top)    T_max: %d    norm stdev of T: %.2f\n",
			r.NumModules, r.NumCores, r.TMax, r.NormStdev)
		fmt.Printf("TDV_mono_opt (Eq. 3):  %s\n", report.Int(r.TDVMonoOpt))
		if r.TDVMonoAct > 0 {
			fmt.Printf("TDV_mono (Eq. 1):      %s  (T_mono = %d)\n", report.Int(r.TDVMonoAct), r.TMono)
		}
		fmt.Printf("TDV_penalty (Eq. 7):   %s (%s of mono_opt)\n", report.Int(r.Penalty), report.Pct(r.PenaltyPctVsOpt))
		fmt.Printf("TDV_benefit (Eq. 8):   %s (%s of mono_opt)\n", report.Int(r.Benefit), report.Pct(-r.BenefitPctVsOpt))
		fmt.Printf("modular vs mono_opt:   %s\n", report.Pct(r.ReductionVsOpt))
		if r.RatioVsActual > 0 {
			fmt.Printf("reduction ratio:       %s (pessimistic %s, pessimism factor %.1fx)\n",
				report.Ratio(r.RatioVsActual), report.Ratio(r.RatioVsOpt), r.PessimismFactor)
		}
	}
	finish(&ob, man, reg, *jsonOut)
	return 0
}

// lintGate prints the preflight report to stderr, records the counts on
// the manifest, and returns the exit code the findings demand: 0 to
// proceed (warnings and infos never block), ExitRuntime on errors.
func lintGate(man *obs.Manifest, lr *lint.Report) int {
	cli.Check(prog, lr.WriteText(os.Stderr))
	man.SetResult("lint_errors", lr.Count(lint.Error))
	man.SetResult("lint_warnings", lr.Count(lint.Warning))
	if lr.HasErrors() {
		return cli.ExitRuntime
	}
	return 0
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
