package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposition line: a fully qualified sample name (family
// name plus any _sum/_count suffix), its label set (including synthetic
// labels such as quantile), and the value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// FamilySnapshot is the point-in-time state of one metric family in
// exposition order.
type FamilySnapshot struct {
	// Name is the exposition name: the dotted registry name with dots
	// mapped to underscores.
	Name string
	Kind Kind
	// Overflowed reports that the family hit its series cap and collapsed
	// later label sets into the {overflow="true"} series.
	Overflowed bool
	Samples    []Sample
}

// summaryQuantiles labels the quantiles a histogram family exposes, in
// the order HistogramSnapshot carries them.
var summaryQuantiles = []string{"0.5", "0.9", "0.95", "0.99"}

// ExpositionName maps a dotted registry name to its exposition form.
func ExpositionName(name string) string { return strings.ReplaceAll(name, ".", "_") }

// Snapshot returns every family sorted by exposition name, each with its
// samples sorted by label signature. Two snapshots of registries holding
// identical values render byte-identical text — the golden tests depend
// on this determinism.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	families := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		families = append(families, fam)
	}
	r.mu.RUnlock()

	out := make([]FamilySnapshot, 0, len(families))
	for _, fam := range families {
		out = append(out, fam.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (f *family) snapshot() FamilySnapshot {
	f.mu.RLock()
	ordered := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ordered = append(ordered, s)
	}
	overflowed := f.overflowed
	f.mu.RUnlock()
	sort.Slice(ordered, func(i, j int) bool {
		return signature(ordered[i].labels) < signature(ordered[j].labels)
	})

	name := ExpositionName(f.name)
	fs := FamilySnapshot{Name: name, Kind: f.kind, Overflowed: overflowed}
	for _, s := range ordered {
		switch f.kind {
		case KindCounter:
			fs.Samples = append(fs.Samples, Sample{Name: name, Labels: s.labels, Value: float64(s.counter.Value())})
		case KindGauge:
			fs.Samples = append(fs.Samples, Sample{Name: name, Labels: s.labels, Value: float64(s.gauge.Value())})
		case KindSummary:
			snap := s.histo.Snapshot()
			for i, q := range []float64{snap.P50, snap.P90, snap.P95, snap.P99} {
				labels := make([]Label, 0, len(s.labels)+1)
				labels = append(labels, s.labels...)
				labels = append(labels, Label{Key: "quantile", Value: summaryQuantiles[i]})
				fs.Samples = append(fs.Samples, Sample{Name: name, Labels: labels, Value: q})
			}
			fs.Samples = append(fs.Samples, Sample{Name: name + "_sum", Labels: s.labels, Value: snap.Sum})
			fs.Samples = append(fs.Samples, Sample{Name: name + "_count", Labels: s.labels, Value: float64(snap.Count)})
		}
	}
	return fs
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): a # TYPE header per family followed by its
// sample lines, families sorted by name, series sorted by label
// signature, label values escaped per the format's rules.
func (r *Registry) WriteText(w io.Writer) error {
	for _, fam := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Kind); err != nil {
			return err
		}
		for _, s := range fam.Samples {
			if _, err := io.WriteString(w, renderSample(s)); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderSample(s Sample) string {
	var b strings.Builder
	b.WriteString(s.Name)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	b.WriteByte('\n')
	return b.String()
}

// escapeLabelValue applies the exposition format's escaping: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders integral values without an exponent or decimal
// point (counters and counts stay grep-able) and everything else in Go's
// shortest-round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
