// Run bundle: the observability spine shared by the cmd/ tools. StartRun
// wires one invocation's structured logger, telemetry tracing, and manifest
// together; Close writes the run directory's artifact set:
//
//	<dir>/events.jsonl   full debug event stream (obs JSONL)
//	<dir>/metrics.json   telemetry snapshot incl. timings + spans
//	<dir>/trace.json     Chrome trace_event export (chrome://tracing, Perfetto)
//	<dir>/manifest.json  seed, flags, artifact digests, telemetry checksum
//
// Every artifact goes through internal/atomicio, and the manifest is written
// last so its digests cover the final bytes of everything else. cmd/cpsreport
// reads this layout back.
package cli

import (
	"fmt"
	"os"
	"path/filepath"

	"cpsguard/internal/manifest"
	"cpsguard/internal/obs"
	"cpsguard/internal/telemetry"
)

// runSpanCapacity is the span-ring size used for observability runs: deep
// enough to keep a quick sweep's full trace tree, still bounded for long
// sweeps (the ring keeps the newest spans; cpsreport reports the drop count).
const runSpanCapacity = 8192

// RunOptions configures StartRun.
type RunOptions struct {
	// Tool is the binary name ("cpsexp", "cpsgen", ...); it prefixes the
	// run ID and lands in the manifest.
	Tool string
	// Seed is the run's top-level RNG seed (0 when the tool has none).
	Seed int64
	// Dir, when non-empty, is the observability directory: the debug
	// event stream goes there live, and Close writes metrics, trace, and
	// manifest next to it. Empty means log-to-stderr only (no artifacts).
	Dir string
	// StderrLevel is the minimum level for the human stderr sink. The
	// zero value is LevelDebug; tools with a -log-level flag pass the
	// parsed level, others should pass obs.LevelInfo explicitly.
	StderrLevel obs.Level
	// Trace enables span tracing even without a Dir (for -trace with
	// -metrics). A non-empty Dir always enables tracing.
	Trace bool
}

// A Run is one tool invocation's observability bundle.
type Run struct {
	// Log is the run's structured logger (never nil; safe to derive).
	Log *obs.Logger
	// Manifest is the run's reproducibility record; register artifacts on
	// it via AddInput/AddOutput as they are consumed/produced.
	Manifest *manifest.Manifest
	// Dir echoes RunOptions.Dir.
	Dir string

	events *os.File
}

// StartRun opens the observability bundle for one invocation. It never
// fails the tool: if the events file cannot be opened, the run degrades to
// stderr-only logging and records the failure as a manifest note.
func StartRun(opts RunOptions) *Run {
	m := manifest.New(opts.Tool, opts.Seed)
	sinks := []obs.Sink{{W: os.Stderr, Format: obs.Text, Min: opts.StderrLevel}}
	r := &Run{Manifest: m, Dir: opts.Dir}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			m.Note("observability dir unavailable: %v", err)
		} else if f, err := os.Create(filepath.Join(opts.Dir, "events.jsonl")); err != nil {
			m.Note("events.jsonl unavailable: %v", err)
		} else {
			r.events = f
			sinks = append(sinks, obs.Sink{W: f, Format: obs.JSONL, Min: obs.LevelDebug})
		}
	}
	telemetry.Default().SetLabel(opts.Tool)
	if opts.Dir != "" || opts.Trace {
		telemetry.Default().EnableTracing(true)
		telemetry.Default().SetSpanCapacity(runSpanCapacity)
	}
	// A supervising parent (cpsexp -shard-supervise) hands its trace context
	// down through the environment; adopting it makes this process's spans
	// part of the fleet trace, so tracing turns on even without a local
	// artifact dir — the parent's merge step collects the spans.
	if tc, ok := telemetry.TraceContextFromEnv(); ok {
		telemetry.Default().SetTraceContext(tc)
		telemetry.Default().EnableTracing(true)
		telemetry.Default().SetSpanCapacity(runSpanCapacity)
	}
	r.Log = obs.New(m.RunID, sinks...)
	r.Log.Debug("run started", obs.F("tool", opts.Tool), obs.F("seed", opts.Seed))
	return r
}

// AddInput registers (and digests) an input artifact on the manifest.
func (r *Run) AddInput(path string) {
	if r == nil {
		return
	}
	r.Manifest.AddInput(path)
}

// AddOutput registers (and digests) a fully-written output artifact.
func (r *Run) AddOutput(path string) {
	if r == nil {
		return
	}
	r.Manifest.AddOutput(path)
}

// Close flushes the event stream and, when the run has a directory, writes
// metrics.json, trace.json, and manifest.json. Artifact failures are logged
// and the first is returned; the manifest is still attempted so a partial
// run stays diagnosable.
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	var firstErr error
	fail := func(what string, err error) {
		r.Log.Error("artifact write failed", obs.F("artifact", what), obs.F("err", err))
		if firstErr == nil {
			firstErr = fmt.Errorf("cli: write %s: %w", what, err)
		}
	}
	if r.Dir != "" {
		reg := telemetry.Default()
		metricsPath := filepath.Join(r.Dir, "metrics.json")
		if err := reg.WriteSnapshot(metricsPath, telemetry.SnapshotOptions{Timings: true, Spans: true}); err != nil {
			fail("metrics.json", err)
		} else {
			r.Manifest.SetTelemetry(metricsPath)
		}
		tracePath := filepath.Join(r.Dir, "trace.json")
		if err := reg.WriteChromeTrace(tracePath); err != nil {
			fail("trace.json", err)
		}
		r.Log.Info("run artifacts written", obs.F("dir", r.Dir))
	}
	// The events file is flushed before the manifest digests nothing of it
	// (events.jsonl is intentionally not digested: the manifest itself is
	// the last event's witness), but close errors still surface.
	if r.events != nil {
		if err := r.events.Close(); err != nil {
			fail("events.jsonl", err)
		}
		r.events = nil
	}
	if r.Dir != "" {
		if err := r.Manifest.Write(r.Dir); err != nil {
			fail("manifest.json", err)
		}
	}
	return firstErr
}
