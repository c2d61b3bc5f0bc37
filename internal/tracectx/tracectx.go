// Package tracectx defines the causal identity a request carries across
// process boundaries: a 128-bit trace ID shared by every span of one
// logical request, a 64-bit span ID per timed operation, and the W3C
// Trace Context (`traceparent`) wire form that moves both — together
// with the head-based sampling decision — over real HTTP hops.
//
// The package is a deliberate leaf: pure stdlib, no dependency on
// internal/gdpr or internal/session, so *every* tier of the system may
// import it — including the shared-infrastructure packages (cdn, cache,
// wal, durable, edge) that the gdprboundary analyzer fences off from
// identity. Identity
// here means *request* identity, never *user* identity: a SpanContext
// carries random bits and a sampling flag, nothing else, which is what
// keeps propagation GDPR-neutral.
//
// ID generation follows the repo's seeded-randomness discipline: IDs
// are drawn from a splitmix64 stream seeded explicitly by the owner
// (the obs.Tracer), so simulations and golden tests replay
// byte-identical traces. Two cooperating processes seed their tracers
// differently and cannot collide in practice (128-bit space); a process
// that joins a remote trace adopts the remote trace ID verbatim.
package tracectx

import (
	"context"
	"encoding/hex"
	"errors"
)

// errBadHexID rejects JSON that is not the exact lowercase-hex string
// form these types marshal to.
var errBadHexID = errors.New("tracectx: malformed hex id")

// TraceID is the 128-bit identity shared by every span of one request.
// The zero value is invalid per the W3C spec.
type TraceID [16]byte

// SpanID is the 64-bit identity of one span. The zero value is invalid.
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the span ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalJSON renders the trace ID as a 32-hex-digit JSON string, the
// same form the wire and the debug endpoints use, so trace exports are
// byte-deterministic and grep-able against traceparent headers.
func (t TraceID) MarshalJSON() ([]byte, error) {
	return appendHexJSON(make([]byte, 0, 34), t[:]), nil
}

// UnmarshalJSON accepts the hex-string form produced by MarshalJSON.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	return unmarshalHexJSON(t[:], b)
}

// MarshalJSON renders the span ID as a 16-hex-digit JSON string.
func (s SpanID) MarshalJSON() ([]byte, error) {
	return appendHexJSON(make([]byte, 0, 18), s[:]), nil
}

// UnmarshalJSON accepts the hex-string form produced by MarshalJSON.
func (s *SpanID) UnmarshalJSON(b []byte) error {
	return unmarshalHexJSON(s[:], b)
}

func appendHexJSON(dst, src []byte) []byte {
	dst = append(dst, '"')
	dst = hexAppend(dst, src)
	return append(dst, '"')
}

func unmarshalHexJSON(dst []byte, b []byte) error {
	if len(b) != len(dst)*2+2 || b[0] != '"' || b[len(b)-1] != '"' {
		return errBadHexID
	}
	if !decodeLowerHex(dst, string(b[1:len(b)-1])) {
		return errBadHexID
	}
	return nil
}

// ParseTraceID parses 32 lowercase hex digits. It fails on bad length,
// non-hex bytes, uppercase (the W3C form is lowercase-only), and the
// all-zero ID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 || !decodeLowerHex(id[:], s) || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// ParseSpanID parses 16 lowercase hex digits, with the same strictness
// as ParseTraceID.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 || !decodeLowerHex(id[:], s) || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

// SpanContext is the propagated identity of one span: which trace it
// belongs to, which span is speaking, and whether the head of the trace
// decided to sample it. It is a plain value — copying is free and
// parsing one allocates nothing, which is what keeps the unsampled
// propagation path at zero allocations.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the head-based sampling decision. Downstream processes
	// honor it in both directions: a sampled parent forces recording, an
	// unsampled parent suppresses it, so one page load is either traced
	// end-to-end or not at all.
	Sampled bool
}

// Valid reports whether the context carries usable identity (non-zero
// trace and span IDs). Only a valid context may be propagated or
// inherited; everything else means "start a fresh root".
func (sc SpanContext) Valid() bool {
	return !sc.TraceID.IsZero() && !sc.SpanID.IsZero()
}

// traceparent constants per https://www.w3.org/TR/trace-context/.
const (
	versionPrefix  = "00"
	traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2 // 00-<32 hex>-<16 hex>-<2 hex>
	flagSampled    = 0x01
	invalidVersion = "ff"
	// Header is the canonical (lowercase) traceparent header name.
	Header = "traceparent"
	// MapKey is Header in net/http's canonical form, the key a received
	// header map holds it under: indexing by it skips the per-lookup
	// allocation of Header.Get("traceparent").
	MapKey = "Traceparent"
)

// Traceparent renders the context in the W3C wire form,
// "00-<trace-id>-<parent-id>-<trace-flags>". Calling it on an invalid
// context returns "" — never propagate zero identity.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	buf := make([]byte, 0, traceparentLen)
	buf = append(buf, versionPrefix...)
	buf = append(buf, '-')
	buf = hexAppend(buf, sc.TraceID[:])
	buf = append(buf, '-')
	buf = hexAppend(buf, sc.SpanID[:])
	buf = append(buf, '-')
	if sc.Sampled {
		buf = append(buf, '0', '1')
	} else {
		buf = append(buf, '0', '0')
	}
	return string(buf)
}

// ParseTraceparent parses a traceparent header value, fail-closed: any
// malformed, truncated, wrong-version, or zero-ID input returns ok=false
// and the zero SpanContext, so the caller starts a fresh root span and
// makes its own sampling decision. It never panics and never allocates,
// whatever bytes arrive — request headers are attacker-controlled.
//
// Per the spec, a version higher than 00 is accepted if the 00-shaped
// prefix parses (forward compatibility); version "ff" is invalid.
// Unknown flag bits are ignored; only the sampled bit is interpreted.
func ParseTraceparent(s string) (SpanContext, bool) {
	// Version field: exactly two lowercase hex digits.
	if len(s) < traceparentLen {
		return SpanContext{}, false
	}
	var version [1]byte
	if !decodeLowerHex(version[:], s[0:2]) || s[0:2] == invalidVersion {
		return SpanContext{}, false
	}
	if s[0:2] == versionPrefix && len(s) != traceparentLen {
		// Version 00 has no extension fields: the length is exact.
		return SpanContext{}, false
	}
	if len(s) > traceparentLen && s[traceparentLen] != '-' {
		// Future versions may append "-extra", but only dash-separated.
		return SpanContext{}, false
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	var sc SpanContext
	if !decodeLowerHex(sc.TraceID[:], s[3:35]) || sc.TraceID.IsZero() {
		return SpanContext{}, false
	}
	if !decodeLowerHex(sc.SpanID[:], s[36:52]) || sc.SpanID.IsZero() {
		return SpanContext{}, false
	}
	var flags [1]byte
	if !decodeLowerHex(flags[:], s[53:55]) {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&flagSampled != 0
	return sc, true
}

// decodeLowerHex decodes src (lowercase hex only — the wire form the
// W3C mandates) into dst. Returns false on any non-[0-9a-f] byte or a
// length mismatch. Unlike encoding/hex it allocates nothing and rejects
// uppercase, both load-bearing here.
func decodeLowerHex(dst []byte, src string) bool {
	if len(src) != len(dst)*2 {
		return false
	}
	for i := range dst {
		hi, ok1 := fromLowerHex(src[i*2])
		lo, ok2 := fromLowerHex(src[i*2+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func fromLowerHex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

const lowerHexDigits = "0123456789abcdef"

func hexAppend(dst, src []byte) []byte {
	for _, b := range src {
		dst = append(dst, lowerHexDigits[b>>4], lowerHexDigits[b&0x0f])
	}
	return dst
}

// IDSource is a deterministic splitmix64 stream for trace and span IDs.
// It follows the repo's seeded-randomness discipline: the owner seeds it
// explicitly, twin runs replay identical ID sequences, and golden trace
// exports stay byte-identical. Methods are not safe for concurrent use;
// the owning tracer serializes draws (IDs are drawn only on the sampled
// path, which is cold by construction).
type IDSource struct {
	state uint64
}

// NewIDSource seeds a stream. Seed 0 is remapped to a fixed non-zero
// constant so the stream never degenerates.
func NewIDSource(seed int64) *IDSource {
	s := uint64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &IDSource{state: s}
}

// next advances the splitmix64 stream (Steele et al., "Fast splittable
// pseudorandom number generators").
func (r *IDSource) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TraceID draws a non-zero 128-bit trace ID.
func (r *IDSource) TraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		putUint64(id[0:8], r.next())
		putUint64(id[8:16], r.next())
	}
	return id
}

// SpanID draws a non-zero 64-bit span ID.
func (r *IDSource) SpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		putUint64(id[:], r.next())
	}
	return id
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// ctxKey is the private context key carrying the active SpanContext.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sc as the active span identity.
// Invalid contexts are not stored: callers on the unsampled path pass
// the ctx through untouched (zero allocations) by never calling this.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanFromContext returns the active span identity, if any. The false
// return is the common case and costs one map-free ctx lookup.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}
