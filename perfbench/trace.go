package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/runctl"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share its op id; Parent is 0 for an op's root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// start opens a span and returns its id. It is safe for concurrent use.
func (t *tracer) start(name string, parent, op int) int {
	at := now().Sub(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: at})
	return len(t.spans)
}

// end closes the span id returned by start.
func (t *tracer) end(id int) {
	at := now().Sub(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, op int, f func()) {
	id := t.start(name, parent, op)
	f()
	t.end(id)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b []byte
	for _, s := range t.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	if err := runctl.WriteFileAtomic(path, b); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in seconds, keyed by span id:
// its duration minus the part of its interval that its child spans cover.
// Children that overlap one another (parallel calls) are counted once.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, cur := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelf sums self times by span name: the time each layer was busy
// with its own work, summed over parallel calls.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// coverage is the share of the root spans' wall time that their layer
// spans account for, over all ops: 1 − Σ root self time / Σ root duration.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var wall, gap float64
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End - s.Start
			gap += self[s.ID]
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - gap/wall
}
