// Service cache-hit benchmark: the full HTTP round trip of a deduped
// POST /scenarios, including the store's integrity re-verification of the
// committed artifact. TestBench (bench_micro_test.go) records it with the
// service counters.
package cpsguard

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cpsguard/internal/manifest"
	"cpsguard/internal/servd"
)

// benchRunner writes a fixed-size valid bundle — the benchmark populates the
// store once through it, then measures pure cache hits.
type benchRunner struct{ csv []byte }

func (r benchRunner) Run(ctx context.Context, sc servd.ScenarioConfig, dir string) error {
	path := filepath.Join(dir, sc.ArtifactName())
	if err := os.WriteFile(path, r.csv, 0o644); err != nil {
		return err
	}
	m := manifest.New("cpsservd", int64(sc.Seed))
	m.SetConfig(sc.FlagMap())
	m.AddOutput(path)
	m.Finish()
	return m.Write(dir)
}

// BenchmarkServdCacheHit measures one deduped submit: HTTP POST → config
// canonicalization → store lookup → artifact digest re-verification →
// status JSON. The store holds one ~2 KB entry, the realistic size of a
// figure CSV.
func BenchmarkServdCacheHit(b *testing.B) {
	store, _, err := servd.Open(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	csv := bytes.Repeat([]byte("n,sigma,profit,defense\n3,0.25,41.5,12.0\n"), 50)
	srv, err := servd.New(servd.Options{Store: store, Runner: benchRunner{csv}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body := `{"figure":"5","quick":true}`
	post := func(wait bool) []byte {
		url := hs.URL + "/scenarios"
		if wait {
			url += "?wait=1"
		}
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		return data
	}
	post(true) // populate the entry outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data := post(false); !bytes.Contains(data, []byte(`"cached": true`)) {
			b.Fatalf("not a cache hit: %s", data)
		}
	}
}
