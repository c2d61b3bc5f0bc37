// Package obs is the observability substrate of the Speed Kit
// reproduction: a labeled metrics registry with a Prometheus-style text
// exposition writer, and a sampling request tracer whose spans follow a
// page load through the client proxy, the CDN path, the origin, and the
// invalidation pipeline.
//
// The package sits strictly on the anonymous side of the paper's
// client/CDN split, and it links no identity-bearing package, so shared
// infrastructure (the edge) counts and scrapes through it too. Two
// mechanisms keep identity out of its labels:
//
//   - at registration time, every label key is checked against the keys
//     DenyLabelKeys was given: a denied key panics before a single sample
//     can be recorded under it. internal/gdpr denies every PII-classified
//     field (user_id, email, cart, ...) from its init, so every binary
//     that links identity gets the fence;
//   - at build time, the obslabels analyzer in internal/lint statically
//     rejects identity-derived expressions (anything typed by
//     internal/session or internal/gdpr) flowing into label positions.
//
// Telemetry must also never tax the request path it observes: disabled
// or unsampled tracing is a single atomic load (plus one add when
// sampling is on) and allocates nothing, and hot-path metric updates go
// through handles resolved once at construction, not per-request name
// lookups. The AllocsPerRun tests in alloc_test.go and the hot-path
// benchmarks pin both properties.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one key/value dimension of a metric series or trace. Keys are
// static snake_case identifiers from the metric catalog (DESIGN.md);
// values must come from small, closed sets ("cdn", "origin", "eu", ...)
// — never from request data that identifies a person.
type Label struct {
	Key   string
	Value string
}

// L builds a Label. The obslabels analyzer checks call sites of this
// function: constant PII keys and identity-derived value expressions are
// build errors.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// maxLabels bounds the label set of a single metric family. Observability
// labels are dimensions, not payloads; more than a handful means a
// cardinality problem is being designed in.
const maxLabels = 6

// labelKeys is the process-wide ledger of label keys: the ones
// DenyLabelKeys denied, and every key some registry has created a series
// under, with the first metric that did. One mutex keeps the two
// consistent, so a denied key panics whichever of the registration and
// the denial comes first.
var labelKeys = struct {
	mu     sync.Mutex
	denied map[string]bool   // guarded by mu
	seen   map[string]string // guarded by mu; key → first metric name
}{denied: map[string]bool{}, seen: map[string]string{}}

// DenyLabelKeys adds keys to the process-wide list of label keys no
// metric may carry, as slog.DenyKeys does for log fields. A later
// registration under a denied key panics, and so does this call if a
// registry already holds a series under one. The list only grows.
func DenyLabelKeys(keys ...string) {
	labelKeys.mu.Lock()
	defer labelKeys.mu.Unlock()
	for _, k := range keys {
		labelKeys.denied[k] = true
		if name, ok := labelKeys.seen[k]; ok {
			panic(deniedKey(name, k))
		}
	}
}

// noteLabelKeys records the keys of a series about to be created, or
// panics on a denied one.
func noteLabelKeys(name string, labels []Label) {
	labelKeys.mu.Lock()
	defer labelKeys.mu.Unlock()
	for _, l := range labels {
		if labelKeys.denied[l.Key] {
			panic(deniedKey(name, l.Key))
		}
		if _, ok := labelKeys.seen[l.Key]; !ok {
			labelKeys.seen[l.Key] = name
		}
	}
}

func deniedKey(name, key string) string {
	return fmt.Sprintf("obs: metric %q label key %q is denied; observability stays on the anonymous side of the GDPR boundary", name, key)
}

// validateName panics unless name is a well-formed dotted metric name:
// lowercase snake_case segments separated by single dots, e.g.
// "speedkit.fetch.total".
func validateName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for _, seg := range strings.Split(name, ".") {
		if !validSegment(seg) {
			panic(fmt.Sprintf("obs: invalid metric name %q (want dotted lowercase snake_case)", name))
		}
	}
}

func validSegment(seg string) bool {
	if seg == "" {
		return false
	}
	for i, r := range seg {
		switch {
		case r >= 'a' && r <= 'z':
		case r == '_' && i > 0:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// validateLabels panics on malformed, duplicate or oversized label
// keys. It returns the labels sorted by key — the
// canonical order used for series identity and exposition.
func validateLabels(name string, labels []Label) []Label {
	if len(labels) > maxLabels {
		panic(fmt.Sprintf("obs: metric %q has %d labels (max %d)", name, len(labels), maxLabels))
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for i, l := range sorted {
		if !validSegment(l.Key) {
			panic(fmt.Sprintf("obs: metric %q has invalid label key %q", name, l.Key))
		}
		if i > 0 && sorted[i-1].Key == l.Key {
			panic(fmt.Sprintf("obs: metric %q has duplicate label key %q", name, l.Key))
		}
	}
	return sorted
}

// signature renders sorted labels as the series identity string.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}
