// Command perfbench is the repository's benchmark: one workload per
// process, inputs generated from --seed, every output checked, and the
// result printed as one JSON line on standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of one workload; with
// --trace 1 it reports the per-layer metrics instead, taken by timing the
// benchmark's own calls into each module and by reading the counters and
// timers the program already exports through obs.Collector and /metricsz.
// run.sh builds and runs it; README.md maps each layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/obs"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"live_soc":    liveSOC,
	"itc02_sweep": itc02Sweep,
	"serve_hot":   serveHot,
}

// run carries one workload execution: its settings, and what the driver
// measured and checked.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is a private scratch directory under .bench_build, removed on exit.
	dir string

	setups    []float64 // seconds, one per repeated set-up
	slices    []slice   // the measured window's ops, in slices
	elapsed   float64   // seconds spent in the measured window
	allocated uint64    // bytes allocated during the measured window
	gcCycles  uint32    // garbage collections during the measured window
	gcPauseNs uint64    // their total stop-the-world pause
	attempted int
	failed    int

	// tr and layers are filled by traced runs only.
	tr     *tracer
	layers metrics
	// expected holds the pinned output values.
	expected map[string]string
	// complaints counts the failed checks reported so far.
	complaints int
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 15

// slice is one part of the measured window: a pass over a workload's
// inputs, or a block of consecutive requests. Throughput and latency
// percentiles are taken per slice and reported as their medians, so a
// stall that hits a few slices on a shared host moves them little.
type slice struct {
	seconds  float64
	ops      int
	p50, p99 float64 // ms
	rssMB    float64 // peak resident memory while the slice ran
}

// newSlice closes a slice that has just ended, from its ops' latencies in
// ms, and starts the next slice's peak-RSS interval.
func newSlice(seconds float64, lat []float64) slice {
	s := slice{seconds: seconds, ops: len(lat), p50: percentile(lat, 0.50), p99: percentile(lat, 0.99), rssMB: peakRSSMB()}
	_ = resetPeakRSS() // mainErr has checked that the reset works
	return s
}

// setup times one of the workload's set-ups, each from a collected heap so
// the earlier ones' garbage is not charged to it.
func (r *run) setup(f func() error) error {
	runtime.GC()
	t0 := now()
	if err := f(); err != nil {
		return err
	}
	r.setups = append(r.setups, since(t0))
	return nil
}

// ops is the number of ops completed in the measured window.
func (r *run) ops() int {
	n := 0
	for _, s := range r.slices {
		n += s.ops
	}
	return n
}

// metric is one reported value; metrics is the result's metric table.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1) //lintgo:allow GO005 the benchmark's main owns its exit code
	}
}

func mainErr() error {
	workload := flag.String("workload", "", "workload name: live_soc, itc02_sweep, serve_hot")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("peak RSS cannot be measured per slice: %w", err)
	}
	expected, err := loadExpected()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		dir:      dir,
		expected: expected[*workload],
	}
	if r.trace {
		r.tr = newTracer()
		r.layers = metrics{}
	}
	printHost(dir)
	if err := drive(r); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if r.trace {
		if err := r.tr.write(filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", r.workload, r.seed))); err != nil {
			return err
		}
	}
	res, err := r.result()
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// e2eUnits lists the end-to-end metrics an untraced run reports, with
// their units; BENCHMARK.json's end_to_end list mirrors it.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"op_p50_ms":       "ms",
	"op_p99_ms":       "ms",
	"alloc_mb_per_op": "MB",
	"peak_rss_mb":     "MB",
}

// result derives the result line from the run.
func (r *run) result() (result, error) {
	if r.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics{}}
	if r.trace {
		if err := completeLayers(r.layers); err != nil {
			return result{}, err
		}
		res.Metrics = r.layers
		return res, nil
	}
	ops := float64(r.ops())
	if ops == 0 {
		return result{}, errors.New("no operation completed in the measured window")
	}
	var rate, p50, p99, rss []float64
	for _, s := range r.slices {
		rate = append(rate, float64(s.ops)/s.seconds)
		p50 = append(p50, s.p50)
		p99 = append(p99, s.p99)
		rss = append(rss, s.rssMB)
	}
	values := map[string]float64{
		"setup_s":         percentile(r.setups, 0.5),
		"ops_per_s":       percentile(rate, 0.5),
		"op_p50_ms":       percentile(p50, 0.5),
		"op_p99_ms":       percentile(p99, 0.5),
		"alloc_mb_per_op": float64(r.allocated) / ops / 1e6,
		"peak_rss_mb":     percentile(rss, 0.5),
	}
	for name, unit := range e2eUnits {
		res.Metrics.set(name, values[name], unit)
	}
	return res, nil
}

// printHost records where the run happened, on its own line ahead of the
// result.
func printHost(storeDir string) {
	host := map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"git_describe": obs.GitDescribe(),
		"store_fs":     fsType(storeDir),
	}
	b, _ := json.Marshal(host) // a map of strings and ints always encodes
	fmt.Printf("host %s\n", b)
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6a656a63: "fakeowner",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resetPeakRSS starts a new peak-RSS interval: writing 5 to
// /proc/self/clear_refs sets Linux's VmHWM to the current resident size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //lintgo:allow GO004 a write to a kernel control file, not a data file
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS,
// Linux's VmHWM, or 0 if it cannot be read.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// window runs body as the measured window, recording its wall time and the
// bytes it allocated. Set-up belongs before it, verification after it.
func (r *run) window(body func()) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_ = resetPeakRSS()
	t0 := now()
	body()
	r.elapsed = since(t0)
	runtime.ReadMemStats(&after)
	r.allocated = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
}

// gcLayers reports the measured window's garbage collection per op.
func (r *run) gcLayers(ops float64) {
	r.layer("go.gc_cycles", float64(r.gcCycles)/ops)
	r.layer("go.gc_pause_ms", float64(r.gcPauseNs)/1e6/ops)
}

// check records one output check: a mismatch against the pinned value
// counts as a failed op, and its got and want lines are what a change that
// alters results on purpose copies into expected.json.
func (r *run) check(name, got string) bool {
	want, ok := r.expected[name]
	if ok && want == got {
		return true
	}
	if !ok {
		want = "(not pinned)"
	}
	r.complain("output check %s failed\n  got  %s\n  want %s", name, got, want)
	return false
}

// complain reports a failed check on standard error; after the first ten,
// the rest only count.
func (r *run) complain(format string, args ...any) {
	if r.complaints++; r.complaints <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}
