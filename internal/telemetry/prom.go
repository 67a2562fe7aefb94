// Prometheus text exposition (format version 0.0.4) for the registry, served
// as GET /metrics/prom on the debug mux. The rendering is deterministic:
// families are emitted counters → histograms → timings, each section sorted
// by name, histogram buckets cumulative with a terminal +Inf — so two
// identical seeded runs (or two scrapes of a settled registry) produce
// byte-identical output, which the strict parser in promtest enforces in
// tests.
//
// Name mangling: instrument names are dot-separated ("lp.pivots"); the
// exposition name is "cpsguard_" + the name with every non-[a-z0-9_] byte
// replaced by '_' ("cpsguard_lp_pivots"). The metric-name lint (enforcing
// ^[a-z0-9_.]+$ at registration) makes this mangle injective: '.' is the
// only byte ever rewritten, so two distinct registered names can never
// collide after mangling.
//
// Unit contract: timing histograms are exposed in their native nanosecond
// buckets (names already carry a _ns suffix by convention). Exact integer
// bucket edges keep the output byte-stable; consumers that want seconds
// divide by 1e9.
package telemetry

import (
	"net/http"
	"sort"
	"strconv"
)

// promPrefix namespaces every exposed metric.
const promPrefix = "cpsguard_"

// PromName mangles a registry instrument name into its exposition-format
// metric name.
func PromName(name string) string {
	b := make([]byte, 0, len(promPrefix)+len(name))
	b = append(b, promPrefix...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			b = append(b, c)
		} else {
			b = append(b, '_')
		}
	}
	return string(b)
}

// AppendPrometheus renders the snapshot in exposition format, appending to b.
func (s *Snapshot) AppendPrometheus(b []byte) []byte {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := PromName(n)
		b = append(b, "# TYPE "...)
		b = append(b, pn...)
		b = append(b, " counter\n"...)
		b = append(b, pn...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, s.Counters[n], 10)
		b = append(b, '\n')
	}
	b = appendPromHistograms(b, s.Histograms)
	b = appendPromHistograms(b, s.Timings)
	return b
}

func appendPromHistograms(b []byte, hists map[string]HistogramSnapshot) []byte {
	names := make([]string, 0, len(hists))
	for n := range hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := hists[n]
		pn := PromName(n)
		b = append(b, "# TYPE "...)
		b = append(b, pn...)
		b = append(b, " histogram\n"...)
		cum := int64(0)
		for i, edge := range h.Edges {
			cum += h.Buckets[i]
			b = append(b, pn...)
			b = append(b, `_bucket{le="`...)
			b = strconv.AppendInt(b, edge, 10)
			b = append(b, `"} `...)
			b = strconv.AppendInt(b, cum, 10)
			b = append(b, '\n')
		}
		// The +Inf bucket and _count are the bucket total, not h.Count:
		// on a snapshot taken mid-observation they could differ by an
		// in-flight increment, and the exposition invariant
		// (+Inf == _count ≥ every bucket) must hold unconditionally.
		if len(h.Buckets) > len(h.Edges) {
			cum += h.Buckets[len(h.Edges)]
		}
		b = append(b, pn...)
		b = append(b, `_bucket{le="+Inf"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
		b = append(b, pn...)
		b = append(b, "_sum "...)
		b = strconv.AppendInt(b, h.Sum, 10)
		b = append(b, '\n')
		b = append(b, pn...)
		b = append(b, "_count "...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	return b
}

// Prometheus renders the snapshot in exposition format.
func (s *Snapshot) Prometheus() []byte { return s.AppendPrometheus(nil) }

// PrometheusText renders the registry's current state — counters,
// histograms, and timings; spans are a trace concern, not a metric one — in
// exposition format.
func (r *Registry) PrometheusText() []byte {
	return r.Snapshot(SnapshotOptions{Timings: true}).Prometheus()
}

// PromHandler serves PrometheusText with the exposition content type; the
// debug mux mounts it at /metrics/prom.
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(r.PrometheusText())
	})
}
