package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one completed, benchmark-recorded call into a layer. Times are
// offsets from the tracer's epoch, so a span file reads the same whatever
// the wall clock said.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Label  string        `json:"label,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a run in memory; nothing is written until the
// run ends. Safe for concurrent use by the trial workers.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is an in-flight span handle returned by start.
type open struct {
	t   *tracer
	rec span
}

// start opens a span under parent (0 for a root). A nil tracer returns a
// handle whose end is a no-op, so untraced code paths stay unconditional.
func (t *tracer) start(parent int, name, label string) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{t: t, rec: span{ID: id, Parent: parent, Name: name, Label: label, Start: time.Since(t.epoch)}}
}

// id is the span's ID, to parent its children (0 when untraced).
func (o open) id() int { return o.rec.ID }

func (o open) end() {
	if o.t == nil {
		return
	}
	o.rec.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.rec)
	o.t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count int
	Busy  time.Duration // sum of durations
	Self  time.Duration // sum of durations minus the time children cover
}

// summarize returns busy time, self time and count per span name. A span's
// self time is its duration minus the union of its children's intervals
// clipped to it, so children that overlap one another (trials running on
// two workers under one point) are not subtracted twice.
func summarize(spans []span) map[string]spanStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Busy += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// pointWait sums, over every point span, the point's wall time minus its
// trials' busy time spread evenly over the workers that ran them: the time
// a point spends waiting for its slowest trial.
func pointWait(spans []span, workers int) time.Duration {
	busy := map[int]time.Duration{}
	trials := map[int]int{}
	for _, s := range spans {
		if s.Name == spanTrial {
			busy[s.Parent] += s.dur()
			trials[s.Parent]++
		}
	}
	var wait time.Duration
	for _, s := range spans {
		if s.Name != spanPoint || trials[s.ID] == 0 {
			continue
		}
		w := min(workers, trials[s.ID])
		wait += s.dur() - busy[s.ID]/time.Duration(w)
	}
	return wait
}

// writeSpans stores the run's spans as JSON, creating the directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
