package main

import "time"

// The benchmark's purpose is wall-clock measurement, so its clock reads
// are confined to these two helpers, which the determinism lint allows.

// now reads the wall clock.
func now() time.Time {
	return time.Now() //lintgo:allow GO002 the benchmark measures wall time
}

// since is the time elapsed since t0, in seconds.
func since(t0 time.Time) float64 {
	return now().Sub(t0).Seconds()
}
