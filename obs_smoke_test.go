// End-to-end smoke of the fleet observability pipeline: build cpsexp and
// cpsreport, run a 2-shard supervised quick sweep with an observability
// directory, stitch the supervisor's and shards' trace.json files with
// cpsreport -trace-merge, and require a merged timeline with spans from all
// three processes and every cross-process parent link resolved. Also proves
// the live /metrics/prom endpoint round-trips the strict in-repo exposition
// parser byte-stably. `make obs-smoke` runs this; it is part of the
// ordinary suite too (skipped in -short).
package cpsguard

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cpsguard/internal/telemetry"
	"cpsguard/internal/telemetry/promtest"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the cpsexp/cpsreport binaries; skipped in -short")
	}
	dir := t.TempDir()
	cpsexp := buildTool(t, dir, "cpsexp")
	cpsreport := buildTool(t, dir, "cpsreport")

	// One root for everything the fleet writes, so a single -trace-merge
	// walk finds the supervisor's trace next to the shards'.
	fleetDir := filepath.Join(dir, "fleet")
	run := exec.Command(cpsexp,
		"-fig", "5", "-quick", "-seed", "7", "-log-level", "warn",
		"-shard-supervise", "2",
		"-shard-dir", filepath.Join(fleetDir, "shards"),
		"-obs", filepath.Join(fleetDir, "obs"))
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("supervised sweep failed: %v\n%s", err, out)
	}

	// Every process left its own trace: the supervisor's obs bundle plus
	// one per shard directory.
	for _, p := range []string{
		filepath.Join(fleetDir, "obs", "trace.json"),
		filepath.Join(fleetDir, "shards", "shard-000-of-002", "trace.json"),
		filepath.Join(fleetDir, "shards", "shard-001-of-002", "trace.json"),
	} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing per-process trace: %v", err)
		}
	}

	merge := exec.Command(cpsreport, "-trace-merge", fleetDir)
	out, err := merge.CombinedOutput()
	if err != nil {
		t.Fatalf("cpsreport -trace-merge: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "merged 3 trace file(s)") {
		t.Fatalf("merge summary: %s", out)
	}
	if strings.Contains(string(out), "distinct trace IDs") {
		t.Fatalf("fleet run produced mixed trace IDs: %s", out)
	}

	data, err := os.ReadFile(filepath.Join(fleetDir, "trace-fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := telemetry.ReadChromeTrace(data)
	if err != nil {
		t.Fatalf("merged fleet trace unreadable: %v", err)
	}
	stats, err := telemetry.ValidateTraceLinks(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PIDs) < 3 {
		t.Fatalf("fleet trace spans %d process(es) %v, want >= 3 (supervisor + 2 shards)",
			len(stats.PIDs), stats.PIDs)
	}
	if stats.CrossProcessLinks < 2 {
		t.Fatalf("cross-process links = %d, want >= 2 (each shard links to its launch span)",
			stats.CrossProcessLinks)
	}
	if stats.UnresolvedParents != 0 {
		t.Fatalf("%d span(s) reference parents missing from the merged trace",
			stats.UnresolvedParents)
	}
}

func TestObsSmokePromEndpoint(t *testing.T) {
	// The live debug mux every binary mounts must serve an exposition that
	// our own strict parser accepts, byte-identically across scrapes of a
	// settled registry — the contract CI diffing and scrape tooling rely on.
	srv := httptest.NewServer(telemetry.Default().DebugMux())
	defer srv.Close()
	scrape := func() []byte {
		resp, err := http.Get(srv.URL + "/metrics/prom")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape: %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first := scrape()
	if _, _, err := promtest.Parse(first); err != nil {
		t.Fatalf("live exposition failed the strict parser: %v", err)
	}
	if !bytes.Equal(first, scrape()) {
		t.Fatal("two scrapes of a settled registry differ")
	}
}
