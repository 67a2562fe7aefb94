// Fleet trace stitching: merge the per-process trace.json files a supervised
// sharded sweep produced into one Chrome trace on a shared timeline, and
// validate that the cross-process parent links (gid/pgid args) actually
// resolve. cmd/cpsreport exposes this as -trace-merge.
package telemetry

import (
	"fmt"
	"sort"
)

// TraceStats summarizes the link structure of a (merged) trace — the
// acceptance surface for "spans from N processes with valid parent links".
type TraceStats struct {
	// Files is the number of input traces merged (1 for ValidateTraceLinks
	// on a single file).
	Files int `json:"files"`
	// Spans counts complete ("X") span events.
	Spans int `json:"spans"`
	// PIDs lists the distinct process IDs carrying spans, ascending.
	PIDs []int `json:"pids"`
	// TraceIDs lists the distinct distributed-trace IDs seen, sorted
	// (ideally one: the whole fleet inherited one context).
	TraceIDs []string `json:"trace_ids,omitempty"`
	// Links counts spans that declare a parent (local or remote).
	Links int `json:"links"`
	// CrossProcessLinks counts links whose parent span lives in a
	// different PID — the supervisor→shard edges.
	CrossProcessLinks int `json:"cross_process_links"`
	// UnresolvedParents counts links whose parent global ID matches no
	// span in the trace (e.g. the parent was evicted from its ring).
	UnresolvedParents int `json:"unresolved_parents"`
	// PIDRemaps counts input processes whose PID collided with another
	// file's and was rewritten during the merge.
	PIDRemaps int `json:"pid_remaps,omitempty"`
}

// MergeChromeTraces stitches per-process traces onto one timeline. Each
// input's timestamps are rebased against the earliest BaseNS across all
// inputs (files without a BaseNS — legacy traces — keep their own zero);
// PID collisions between files (OS PID reuse, or two legacy files both
// claiming PID 1) are resolved by rewriting the later file's PIDs to fresh
// values. Events are ordered deterministically, so merging the same files
// always yields identical bytes. The returned stats are computed on the
// merged trace via ValidateTraceLinks.
func MergeChromeTraces(traces []*ChromeTrace) (*ChromeTrace, *TraceStats, error) {
	if len(traces) == 0 {
		return nil, nil, fmt.Errorf("telemetry: no traces to merge")
	}
	var baseNS int64
	haveBase := false
	for i, t := range traces {
		if t == nil {
			return nil, nil, fmt.Errorf("telemetry: nil trace at index %d", i)
		}
		if t.BaseNS != 0 && (!haveBase || t.BaseNS < baseNS) {
			baseNS = t.BaseNS
			haveBase = true
		}
	}

	merged := &ChromeTrace{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms", BaseNS: baseNS}
	usedPIDs := map[int]bool{}
	maxPID := 0
	traceIDs := map[string]bool{}
	remaps := 0
	for _, t := range traces {
		if t.TraceID != "" {
			traceIDs[t.TraceID] = true
		}
		var shiftUS float64
		if haveBase && t.BaseNS != 0 {
			shiftUS = float64(t.BaseNS-baseNS) / 1e3
		}
		// Remap this file's PIDs into unclaimed output PIDs. One pass to
		// learn the file's PIDs (almost always exactly one), then assign.
		filePIDs := map[int]int{}
		for _, ev := range t.TraceEvents {
			if _, ok := filePIDs[ev.PID]; !ok {
				filePIDs[ev.PID] = ev.PID
			}
		}
		inOrder := make([]int, 0, len(filePIDs))
		for p := range filePIDs {
			inOrder = append(inOrder, p)
		}
		sort.Ints(inOrder)
		for _, p := range inOrder {
			out := p
			if usedPIDs[out] {
				out = maxPID + 1
				remaps++
			}
			filePIDs[p] = out
			usedPIDs[out] = true
			if out > maxPID {
				maxPID = out
			}
		}
		for _, ev := range t.TraceEvents {
			ev.PID = filePIDs[ev.PID]
			if ev.Ph == "X" {
				ev.TS += shiftUS
			}
			merged.TraceEvents = append(merged.TraceEvents, ev)
		}
	}
	if len(traceIDs) == 1 {
		for id := range traceIDs {
			merged.TraceID = id
		}
	}

	// Deterministic event order: metadata first within each process (so
	// viewers see names before slices), then spans by time.
	sort.SliceStable(merged.TraceEvents, func(a, b int) bool {
		ea, eb := &merged.TraceEvents[a], &merged.TraceEvents[b]
		if ea.PID != eb.PID {
			return ea.PID < eb.PID
		}
		if (ea.Ph == "M") != (eb.Ph == "M") {
			return ea.Ph == "M"
		}
		if ea.TS != eb.TS {
			return ea.TS < eb.TS
		}
		if ea.TID != eb.TID {
			return ea.TID < eb.TID
		}
		return ea.Name < eb.Name
	})

	stats, err := ValidateTraceLinks(merged)
	if err != nil {
		return nil, nil, err
	}
	stats.Files = len(traces)
	stats.PIDRemaps = remaps
	if len(traceIDs) > 0 {
		stats.TraceIDs = make([]string, 0, len(traceIDs))
		for id := range traceIDs {
			stats.TraceIDs = append(stats.TraceIDs, id)
		}
		sort.Strings(stats.TraceIDs)
	}
	return merged, stats, nil
}

// ValidateTraceLinks resolves every span's declared parent ("pgid" arg)
// against the global span IDs ("gid" arg) present in the trace and reports
// the link structure. It errors on a duplicate gid — two spans claiming one
// global identity would make parent links ambiguous.
func ValidateTraceLinks(t *ChromeTrace) (*TraceStats, error) {
	if t == nil {
		return nil, fmt.Errorf("telemetry: nil trace")
	}
	stats := &TraceStats{Files: 1}
	if t.TraceID != "" {
		stats.TraceIDs = []string{t.TraceID}
	}
	gidPID := map[string]int{}
	pids := map[int]bool{}
	for i := range t.TraceEvents {
		ev := &t.TraceEvents[i]
		if ev.Ph != "X" {
			continue
		}
		stats.Spans++
		pids[ev.PID] = true
		if g := argString(ev.Args, "gid"); g != "" {
			if _, dup := gidPID[g]; dup {
				return nil, fmt.Errorf("telemetry: duplicate global span id %s", g)
			}
			gidPID[g] = ev.PID
		}
	}
	for i := range t.TraceEvents {
		ev := &t.TraceEvents[i]
		if ev.Ph != "X" {
			continue
		}
		pg := argString(ev.Args, "pgid")
		if pg == "" {
			continue
		}
		stats.Links++
		parentPID, ok := gidPID[pg]
		switch {
		case !ok:
			stats.UnresolvedParents++
		case parentPID != ev.PID:
			stats.CrossProcessLinks++
		}
	}
	stats.PIDs = make([]int, 0, len(pids))
	for p := range pids {
		stats.PIDs = append(stats.PIDs, p)
	}
	sort.Ints(stats.PIDs)
	return stats, nil
}

// argString reads a string arg from a trace event's args map (which, after
// a JSON round trip, holds any-typed values).
func argString(args map[string]any, key string) string {
	if args == nil {
		return ""
	}
	s, _ := args[key].(string)
	return s
}
