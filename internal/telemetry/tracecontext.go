// Cross-process trace propagation: a serializable trace context in the W3C
// traceparent wire format, carried over an environment variable to child
// cpsexp shards, so spans recorded in different processes stitch into one
// fleet-wide tree.
//
// Identity model: every process owns a random 64-bit span base; a span's
// *global* ID is the 16-hex rendering of base XOR its registry-local ID.
// Local parent links (ParentID) stay small integers; cross-process links are
// carried as a RemoteParent global ID on the child process's root spans. The
// Chrome trace export renders both as "gid"/"pgid" args, which is what
// MergeChromeTraces resolves when stitching per-process trace files.
//
// Trace IDs and span bases are drawn from crypto/rand. They live only in the
// nondeterministic sections of a snapshot (spans, trace identity), never in
// the deterministic counters/histograms sections, so the two-run
// byte-identity contract is untouched.
package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
)

// TraceParentEnv is the environment variable the shard supervisor sets on
// child cpsexp processes. A child that finds it at startup (cli.StartRun)
// adopts the trace ID, remote-parents its root spans to the supervisor's
// per-shard span, and enables tracing.
const TraceParentEnv = "CPSGUARD_TRACEPARENT"

// TraceContext is a serializable point in a distributed trace: which trace,
// and which span is the parent of whatever the receiver does next.
type TraceContext struct {
	// TraceID is 32 lowercase hex characters, not all zero.
	TraceID string
	// SpanID is the parent span's global ID: 16 lowercase hex characters,
	// not all zero.
	SpanID string
}

// Valid reports whether both fields are well-formed per the W3C rules.
func (tc TraceContext) Valid() bool {
	return isLowerHex(tc.TraceID, 32) && !allZero(tc.TraceID) &&
		isLowerHex(tc.SpanID, 16) && !allZero(tc.SpanID)
}

// TraceParent renders the context in the W3C traceparent wire format,
// version 00 with the sampled flag set:
//
//	00-<32 hex trace-id>-<16 hex parent-id>-01
func (tc TraceContext) TraceParent() string {
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// ParseTraceParent parses a W3C traceparent header value. Only version 00 is
// accepted; trace and parent IDs must be lowercase hex and not all zero.
func ParseTraceParent(s string) (TraceContext, error) {
	// 00-{32}-{16}-{2} = 2+1+32+1+16+1+2 = 55 bytes.
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, fmt.Errorf("telemetry: malformed traceparent %q", s)
	}
	if s[:2] != "00" {
		return TraceContext{}, fmt.Errorf("telemetry: unsupported traceparent version %q", s[:2])
	}
	tc := TraceContext{TraceID: s[3:35], SpanID: s[36:52]}
	if !isLowerHex(s[53:55], 2) {
		return TraceContext{}, fmt.Errorf("telemetry: malformed traceparent flags %q", s[53:55])
	}
	if !tc.Valid() {
		return TraceContext{}, fmt.Errorf("telemetry: invalid traceparent ids in %q", s)
	}
	return tc, nil
}

// TraceContextFromEnv reads and parses TraceParentEnv. The second return is
// false when the variable is unset or malformed — a malformed value is
// ignored rather than fatal, because trace propagation is best-effort
// observability, never control flow.
func TraceContextFromEnv() (TraceContext, bool) {
	v := os.Getenv(TraceParentEnv)
	if v == "" {
		return TraceContext{}, false
	}
	tc, err := ParseTraceParent(v)
	if err != nil {
		return TraceContext{}, false
	}
	return tc, true
}

func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// randUint64 draws 8 random bytes. crypto/rand failure is vanishingly rare;
// the fallback mixes the PID so two shards still get distinct bases.
func randUint64() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0x9e3779b97f4a7c15 * uint64(os.Getpid()+1)
	}
	return binary.BigEndian.Uint64(b[:])
}

// newTraceID renders 16 random bytes as a 32-hex trace ID.
func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x%016x", randUint64(), randUint64())
	}
	return fmt.Sprintf("%x", b)
}

// TraceID returns the registry's trace identity, generating one on first
// use. Every span recorded by this process belongs to this trace unless
// SetTraceContext adopted an inherited one first.
func (r *Registry) TraceID() string {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if r.traceID == "" {
		r.traceID = newTraceID()
	}
	return r.traceID
}

// SetTraceContext adopts an inherited trace context: subsequent spans carry
// tc.TraceID, and root spans (no local parent) remote-parent to tc.SpanID so
// they nest under the launching process's span after a fleet merge. Invalid
// contexts are ignored.
func (r *Registry) SetTraceContext(tc TraceContext) {
	if !tc.Valid() {
		return
	}
	r.traceMu.Lock()
	r.traceID = tc.TraceID
	r.remoteParent = tc.SpanID
	r.traceMu.Unlock()
}

// remoteParentID reads the inherited parent global span ID ("" when this
// process is a trace root).
func (r *Registry) remoteParentID() string {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return r.remoteParent
}

// SetLabel names this process in trace exports ("cpsexp", "cpsexp shard
// 0/2"); the Chrome export emits it as the process_name.
func (r *Registry) SetLabel(label string) {
	r.traceMu.Lock()
	r.label = label
	r.traceMu.Unlock()
}

// Label returns the process label set by SetLabel.
func (r *Registry) Label() string {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return r.label
}

// spanBaseID returns the process's random span base, seeding it on first
// use. Base 0 is reserved for "no base" (legacy snapshots).
func (r *Registry) spanBaseID() uint64 {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	for r.spanBase == 0 {
		r.spanBase = randUint64()
	}
	return r.spanBase
}

// GlobalSpanID renders a registry-local span ID as its process-unique
// 16-hex global form (span base XOR local ID). id 0 (a nil span) yields "".
func (r *Registry) GlobalSpanID(id uint64) string {
	if r == nil || id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", r.spanBaseID()^id)
}

// ChildTraceContext builds the context to hand a child process (or emit on
// an HTTP response) so the child's spans parent under sp. With tracing off
// or a nil span it returns false and nothing is propagated.
func (r *Registry) ChildTraceContext(sp *Span) (TraceContext, bool) {
	if r == nil || sp == nil || !r.Tracing() {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: r.TraceID(), SpanID: r.GlobalSpanID(sp.ID())}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}
