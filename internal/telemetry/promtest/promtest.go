// Package promtest is a strict parser for the Prometheus text exposition
// format — deliberately narrower than a scraper's: it accepts exactly what
// telemetry's prom.go emits (plus HELP lines for generality) and errors on
// everything else. Tests round-trip /metrics/prom output through it, so any
// drift in the exposition — a non-cumulative bucket, a missing +Inf, a
// duplicate family, an unsorted mangle collision — fails loudly instead of
// producing a dashboard that silently lies. Only _test.go files import it,
// so no binary links it.
package promtest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	// Name is the full sample name (including _bucket/_sum/_count).
	Name string
	// Labels holds the label set ({le="..."} for buckets; empty otherwise).
	Labels map[string]string
	// Value is the parsed sample value.
	Value float64
}

// Family is one parsed metric family: a # TYPE line and its samples.
type Family struct {
	Name    string
	Type    string // "counter" or "histogram"
	Samples []Sample
}

var promNameRe = func(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9') {
			continue
		}
		return false
	}
	return true
}

// Parse parses exposition text into families, strictly:
//
//   - every sample must follow a # TYPE line declaring its family, and TYPE
//     must be counter or histogram;
//   - counter families carry exactly one unlabeled sample named after the
//     family;
//   - histogram families carry cumulative _bucket samples with strictly
//     ascending le values ending at +Inf, plus _sum and _count, with
//     _count equal to the +Inf bucket;
//   - no family or sample may repeat.
//
// It returns the families keyed by name plus their order of appearance.
func Parse(data []byte) (map[string]*Family, []string, error) {
	families := map[string]*Family{}
	var order []string
	var cur *Family
	finish := func() error {
		if cur == nil {
			return nil
		}
		if err := validateFamily(cur); err != nil {
			return err
		}
		cur = nil
		return nil
	}
	for lineNo, line := range strings.Split(string(data), "\n") {
		n := lineNo + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "HELP" {
				continue
			}
			if len(fields) != 4 || fields[1] != "TYPE" {
				return nil, nil, fmt.Errorf("prom parse: line %d: unsupported comment %q", n, line)
			}
			name, typ := fields[2], fields[3]
			if !promNameRe(name) {
				return nil, nil, fmt.Errorf("prom parse: line %d: bad metric name %q", n, name)
			}
			if typ != "counter" && typ != "histogram" {
				return nil, nil, fmt.Errorf("prom parse: line %d: unsupported type %q", n, typ)
			}
			if _, dup := families[name]; dup {
				return nil, nil, fmt.Errorf("prom parse: line %d: duplicate family %q", n, name)
			}
			if err := finish(); err != nil {
				return nil, nil, err
			}
			cur = &Family{Name: name, Type: typ}
			families[name] = cur
			order = append(order, name)
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, nil, fmt.Errorf("prom parse: line %d: %w", n, err)
		}
		if cur == nil {
			return nil, nil, fmt.Errorf("prom parse: line %d: sample %q before any # TYPE", n, sample.Name)
		}
		if !sampleInFamily(sample.Name, cur) {
			return nil, nil, fmt.Errorf("prom parse: line %d: sample %q outside family %q", n, sample.Name, cur.Name)
		}
		for _, prev := range cur.Samples {
			if prev.Name == sample.Name && labelsEqual(prev.Labels, sample.Labels) {
				return nil, nil, fmt.Errorf("prom parse: line %d: duplicate sample %q", n, sample.Name)
			}
		}
		cur.Samples = append(cur.Samples, sample)
	}
	if err := finish(); err != nil {
		return nil, nil, err
	}
	return families, order, nil
}

func sampleInFamily(name string, f *Family) bool {
	if f.Type == "counter" {
		return name == f.Name
	}
	return name == f.Name+"_bucket" || name == f.Name+"_sum" || name == f.Name+"_count"
}

func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.IndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		for _, pair := range strings.Split(rest[i+1:end], ",") {
			if pair == "" {
				continue
			}
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return s, fmt.Errorf("malformed label %q", pair)
			}
			k, v := pair[:eq], pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return s, fmt.Errorf("unquoted label value %q", v)
			}
			v = v[1 : len(v)-1]
			if strings.ContainsAny(v, `"\`) {
				return s, fmt.Errorf("escapes not supported in label value %q", v)
			}
			s.Labels[k] = v
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if !promNameRe(s.Name) {
		return s, fmt.Errorf("bad sample name %q", s.Name)
	}
	rest = strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

func validateFamily(f *Family) error {
	if f.Type == "counter" {
		if len(f.Samples) != 1 {
			return fmt.Errorf("prom parse: counter %q has %d samples, want 1", f.Name, len(f.Samples))
		}
		if len(f.Samples[0].Labels) != 0 {
			return fmt.Errorf("prom parse: counter %q sample has labels", f.Name)
		}
		if f.Samples[0].Value < 0 {
			return fmt.Errorf("prom parse: counter %q is negative", f.Name)
		}
		return nil
	}
	// Histogram: cumulative ascending buckets ending at +Inf, _sum, _count.
	var (
		les       []float64
		counts    []float64
		sawSum    bool
		sawCount  bool
		countVal  float64
		lastIsInf bool
	)
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			raw, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("prom parse: histogram %q bucket without le", f.Name)
			}
			le := math.Inf(1)
			if raw != "+Inf" {
				v, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return fmt.Errorf("prom parse: histogram %q bad le %q", f.Name, raw)
				}
				le = v
			}
			les = append(les, le)
			counts = append(counts, s.Value)
			lastIsInf = math.IsInf(le, 1)
		case f.Name + "_sum":
			sawSum = true
		case f.Name + "_count":
			sawCount = true
			countVal = s.Value
		}
	}
	if len(les) == 0 {
		return fmt.Errorf("prom parse: histogram %q has no buckets", f.Name)
	}
	if !sort.Float64sAreSorted(les) || !strictlyAscending(les) {
		return fmt.Errorf("prom parse: histogram %q buckets not strictly ascending", f.Name)
	}
	if !lastIsInf {
		return fmt.Errorf("prom parse: histogram %q missing terminal +Inf bucket", f.Name)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			return fmt.Errorf("prom parse: histogram %q buckets not cumulative", f.Name)
		}
	}
	if !sawSum {
		return fmt.Errorf("prom parse: histogram %q missing _sum", f.Name)
	}
	if !sawCount {
		return fmt.Errorf("prom parse: histogram %q missing _count", f.Name)
	}
	if countVal != counts[len(counts)-1] {
		return fmt.Errorf("prom parse: histogram %q _count %g != +Inf bucket %g",
			f.Name, countVal, counts[len(counts)-1])
	}
	return nil
}

func strictlyAscending(v []float64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			return false
		}
	}
	return true
}
