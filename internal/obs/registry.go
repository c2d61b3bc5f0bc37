package obs

import (
	"fmt"
	"sync"
)

// Kind is the instrument type of a metric family.
type Kind int

// Instrument kinds. Histograms are exposed in the Prometheus summary
// shape (quantiles + _sum + _count).
const (
	KindCounter Kind = iota
	KindGauge
	KindSummary
)

// String names the kind in the exposition format.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	}
	return "untyped"
}

// overflowSignature identifies the collapse series a family routes new
// label sets into once its series cap is reached.
const overflowSignature = "\x00overflow"

// series is one labeled instrument of a family. Exactly one of the
// instrument pointers is set, matching the family kind.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	histo   *Histogram
}

// family is every series registered under one metric name.
type family struct {
	name string
	kind Kind

	mu     sync.RWMutex
	series map[string]*series // guarded by mu
	// overflowed notes that at least one label set was collapsed into the
	// overflow series because the cap was hit.
	overflowed bool // guarded by mu
}

// Registry is the process-wide metric namespace: stable dotted names,
// each with a small bounded label set, resolving to the shared
// Counter/Gauge/Histogram instruments. Lookups create on first
// use and are safe for concurrent use; hot paths resolve their handles
// once at construction and then touch only the lock-free instruments.
type Registry struct {
	// MaxSeriesPerFamily caps the distinct label sets of one metric name.
	// Further label sets collapse into a single {overflow="true"} series,
	// so a label-value explosion degrades resolution instead of memory.
	// Set before the first lookup; the default is 64.
	MaxSeriesPerFamily int

	mu       sync.RWMutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{MaxSeriesPerFamily: 64, families: make(map[string]*family)}
}

// Default is the process default registry, the obs analogue of
// net/http.DefaultServeMux: components that are not handed an explicit
// registry record here, so one scrape or dump sees the whole process.
var Default = NewRegistry()

// Counter resolves (creating on first use) the counter series for name
// and labels. It panics on an invalid name, a denied label key,
// or if name is already registered with a different kind — all
// programmer errors the tests and the obslabels analyzer pin.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, KindCounter, labels).counter
}

// Gauge resolves the gauge series for name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, KindGauge, labels).gauge
}

// Histogram resolves the histogram series for name and labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, KindSummary, labels).histo
}

func (r *Registry) lookup(name string, kind Kind, labels []Label) *series {
	fam := r.familyFor(name, kind)
	sorted := validateLabels(name, labels)
	sig := signature(sorted)

	fam.mu.RLock()
	s, ok := fam.series[sig]
	fam.mu.RUnlock()
	if ok {
		return s
	}

	fam.mu.Lock()
	defer fam.mu.Unlock()
	if s, ok := fam.series[sig]; ok {
		return s
	}
	noteLabelKeys(name, sorted)
	max := r.MaxSeriesPerFamily
	if max <= 0 {
		max = 64
	}
	if len(fam.series) >= max {
		fam.overflowed = true
		if s, ok := fam.series[overflowSignature]; ok {
			return s
		}
		s := newSeries(kind, []Label{{Key: "overflow", Value: "true"}})
		fam.series[overflowSignature] = s
		return s
	}
	s = newSeries(kind, sorted)
	fam.series[sig] = s
	return s
}

func newSeries(kind Kind, labels []Label) *series {
	s := &series{labels: labels}
	switch kind {
	case KindCounter:
		s.counter = NewCounter()
	case KindGauge:
		s.gauge = NewGauge()
	case KindSummary:
		s.histo = NewHistogram()
	}
	return s
}

func (r *Registry) familyFor(name string, kind Kind) *family {
	r.mu.RLock()
	fam, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		validateName(name)
		r.mu.Lock()
		if fam, ok = r.families[name]; !ok {
			fam = &family{name: name, kind: kind, series: make(map[string]*series)}
			r.families[name] = fam
		}
		r.mu.Unlock()
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}
	return fam
}
