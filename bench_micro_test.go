// Micro-benchmark report: `make bench` runs TestBench with BENCH_OUT set,
// which executes every solver-, cache-, shard- and observability-layer
// benchmark below in one pass, pairs each timing with the telemetry counter
// deltas it produced, writes the committed BENCH_micro.json, and then
// enforces the speedup and attribution gates on that one report. The
// paper's end-to-end number has its own harness in perfbench/; this report
// is the micro layer under it.
package cpsguard

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"cpsguard/internal/atomicio"
	"cpsguard/internal/flow"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
)

// benchSchema versions the BENCH_micro.json layout. Consumers (CI
// regression trackers, cpsreport-style analyzers) should reject files whose
// schema they do not recognize rather than guess; bump the suffix on any
// incompatible change.
const benchSchema = "cpsguard-bench/v1"

// benchReport is the file-level envelope of BENCH_micro.json.
type benchReport struct {
	Schema     string                `json:"schema"`
	GoVersion  string                `json:"go_version"`
	Platform   string                `json:"platform"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

// benchEntry is one benchmark's timing plus the deterministic work counters
// accumulated across all its iterations.
type benchEntry struct {
	Iterations  int              `json:"iterations"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// benchTable lists every benchmark the report carries, by entry name.
var benchTable = []struct {
	name string
	fn   func(*testing.B)
}{
	{"LPSolve", BenchmarkLPSolve},
	{"MILPSolve", BenchmarkMILPSolve},
	{"AdversaryResilient", BenchmarkAdversaryResilient},
	{"ExperimentsTrial", BenchmarkExperimentsTrial},
	{"ImpactMatrix", BenchmarkImpactMatrix},
	{"ImpactMatrixWarm", BenchmarkImpactMatrixWarm},
	{"AdversaryCold", BenchmarkAdversaryCold},
	{"AdversaryCached", BenchmarkAdversaryCached},
	{"RevisedSimplex", BenchmarkRevisedSimplex},
	{"RevisedNationalGrid", BenchmarkRevisedNationalGrid},
	{"RevisedNationalOracle", BenchmarkRevisedNationalOracle},
	{"DenseNationalOracle", BenchmarkDenseNationalOracle},
	{"ShardMerge", BenchmarkShardMerge},
	{"PromExposition", BenchmarkPromExposition},
	{"TraceMerge", BenchmarkTraceMerge},
	{"ScreenNational", BenchmarkScreenNational},
}

// revisedCounters is every counter family a sparse revised solve populates
// (DESIGN.md §15).
var revisedCounters = []string{"lp.revised.solves", "lp.revised.factorizations",
	"lp.revised.eta_updates", "lp.revised.ftran_solves", "lp.revised.btran_solves"}

// benchCounterGates names the counters an entry must record: an entry
// without them means that layer's telemetry wiring regressed.
var benchCounterGates = map[string][]string{
	"RevisedNationalGrid": revisedCounters,
	"ScreenNational":      {"screen.runs", "screen.evaluated", "screen.pruned"},
	"ShardMerge":          {"shard.merges", "shard.merged_records"},
}

// benchSpeedupGates require entry fast to be at least min times faster than
// entry slow in the same report.
var benchSpeedupGates = []struct {
	fast, slow string
	min        int64
}{
	// Met by solve-cache hits: iterations 2+ of ImpactMatrixWarm never
	// reach the simplex. Warm start itself is judged end to end by
	// perfbench's fig5_warm workload.
	{"ImpactMatrixWarm", "ImpactMatrix", 2},
	{"RevisedNationalOracle", "DenseNationalOracle", 5},
}

// TestBench is gated by BENCH_OUT: unset, it skips (so plain `go test ./...`
// stays fast); set, it runs benchTable, writes the JSON report to that path
// and fails on any gate. The registry is reset around each benchmark so
// counters attribute to exactly one workload.
func TestBench(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("set BENCH_OUT=path to run the micro-benchmark report")
	}
	reg := telemetry.Default()
	report := benchReport{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: make(map[string]benchEntry, len(benchTable)),
	}
	for _, bench := range benchTable {
		reg.Reset()
		r := testing.Benchmark(bench.fn)
		snap := reg.Snapshot(telemetry.SnapshotOptions{})
		counters := make(map[string]int64, len(snap.Counters))
		for name, v := range snap.Counters {
			if v != 0 {
				counters[name] = v
			}
		}
		report.Benchmarks[bench.name] = benchEntry{
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Counters:    counters,
		}
		t.Logf("%s: %d iter, %d ns/op, %d counters", bench.name, r.N, r.NsPerOp(), len(counters))
	}
	reg.Reset()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := atomicio.MkdirAllAndWrite(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", out, len(data))

	for name, want := range benchCounterGates {
		for _, c := range want {
			if report.Benchmarks[name].Counters[c] == 0 {
				t.Errorf("%s recorded no %s counter", name, c)
			}
		}
	}
	for _, g := range benchSpeedupGates {
		fast, slow := report.Benchmarks[g.fast].NsPerOp, report.Benchmarks[g.slow].NsPerOp
		if fast <= 0 || slow < g.min*fast {
			t.Errorf("%s %d ns/op is not ≥%dx faster than %s %d ns/op", g.fast, fast, g.min, g.slow, slow)
		} else {
			t.Logf("%s vs %s: %.1fx", g.fast, g.slow, float64(slow)/float64(fast))
		}
	}
	// The screen must at least halve the candidate space on the national
	// instance, or the dominance rule is not earning its keep.
	screen := report.Benchmarks["ScreenNational"].Counters
	if evaluated, pruned := screen["screen.evaluated"], screen["screen.pruned"]; pruned < evaluated {
		t.Errorf("dominance rule pruned %d of %d+%d contingency sets — less than half the candidate space",
			pruned, evaluated, pruned)
	} else if evaluated > 0 {
		t.Logf("candidate reduction: %.1fx (%d evaluated of %d total sets)",
			float64(evaluated+pruned)/float64(evaluated), evaluated, evaluated+pruned)
	}
}

// TestBenchTelemetrySchema pins the report to the cpsguard-bench/v1
// envelope: the schema tag and the exact top-level key set. Downstream
// trackers key on these names; renaming one is a breaking change that must
// bump benchSchema.
func TestBenchTelemetrySchema(t *testing.T) {
	report := benchReport{
		Schema: benchSchema, GoVersion: "go0.0", Platform: "test/none",
		Benchmarks: map[string]benchEntry{
			"RevisedNationalGrid": {Iterations: 1, NsPerOp: 2,
				Counters: map[string]int64{"lp.revised.eta_updates": 3}},
		},
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "go_version", "platform", "benchmarks"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("envelope missing key %q", key)
		}
	}
	if len(raw) != 4 {
		t.Errorf("envelope has %d top-level keys, want 4 (schema change requires a version bump)", len(raw))
	}
	var back benchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != benchSchema || back.Benchmarks["RevisedNationalGrid"].Counters["lp.revised.eta_updates"] != 3 {
		t.Errorf("round trip mangled report: %+v", back)
	}

	// The committed report is in this envelope and carries every entry of
	// benchTable: regenerate it with `make bench` when the table changes.
	committed, err := os.ReadFile("BENCH_micro.json")
	if err != nil {
		t.Fatal(err)
	}
	var micro benchReport
	if err := json.Unmarshal(committed, &micro); err != nil {
		t.Fatalf("BENCH_micro.json: %v", err)
	}
	if micro.Schema != benchSchema || len(micro.Benchmarks) != len(benchTable) {
		t.Errorf("BENCH_micro.json: schema %q with %d entries, want %q with %d",
			micro.Schema, len(micro.Benchmarks), benchSchema, len(benchTable))
	}
	for _, bench := range benchTable {
		if _, ok := micro.Benchmarks[bench.name]; !ok {
			t.Errorf("BENCH_micro.json has no %s entry", bench.name)
		}
	}
}

// TestBenchRevisedSchema pins the lp.revised.* counter names the
// RevisedNationalGrid gate keys on: one forced-sparse revised solve must
// populate every counter family §15 documents.
func TestBenchRevisedSchema(t *testing.T) {
	reg := telemetry.Default()
	reg.Reset()
	defer reg.Reset()
	g, err := gridgen.Build(gridgen.Config{Regions: 64, Seed: 3, Tier: gridgen.TierNational})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: lp.MethodRevised}}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(telemetry.SnapshotOptions{})
	for _, c := range revisedCounters {
		if snap.Counters[c] == 0 {
			t.Errorf("revised dispatch solve left counter %s at zero", c)
		}
	}
}
