package tracectx

import (
	"context"
	"strings"
	"testing"
)

func mustSpanContext(t *testing.T, tp string) SpanContext {
	t.Helper()
	sc, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed, want ok", tp)
	}
	return sc
}

func TestTraceparentRoundTrip(t *testing.T) {
	src := NewIDSource(42)
	for i := 0; i < 100; i++ {
		want := SpanContext{
			TraceID: src.TraceID(),
			SpanID:  src.SpanID(),
			Sampled: i%2 == 0,
		}
		wire := want.Traceparent()
		if len(wire) != traceparentLen {
			t.Fatalf("Traceparent() length = %d, want %d (%q)", len(wire), traceparentLen, wire)
		}
		got, ok := ParseTraceparent(wire)
		if !ok {
			t.Fatalf("round-trip parse failed for %q", wire)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v (wire %q)", got, want, wire)
		}
	}
}

func TestTraceparentKnownVector(t *testing.T) {
	// Vector from the W3C trace-context spec.
	const wire = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc := mustSpanContext(t, wire)
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %s", sc.TraceID)
	}
	if sc.SpanID.String() != "00f067aa0ba902b7" {
		t.Fatalf("span id = %s", sc.SpanID)
	}
	if !sc.Sampled {
		t.Fatal("sampled bit not parsed")
	}
	if sc.Traceparent() != wire {
		t.Fatalf("re-encode = %q, want %q", sc.Traceparent(), wire)
	}
}

// TestTraceparentMalformed is the fail-closed gate: every malformed,
// truncated, or hostile header must yield ok=false and the zero
// SpanContext — the caller then starts a fresh root span and makes its
// own sampling decision, never inheriting a bogus sampling bit.
func TestTraceparentMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"garbage", "not-a-traceparent"},
		{"truncated after version", "00-"},
		{"truncated trace id", valid[:20]},
		{"truncated span id", valid[:40]},
		{"truncated flags", valid[:len(valid)-1]},
		{"one char short", valid[:54]},
		{"trailing junk v00", valid + "x"},
		{"trailing dash v00", valid + "-extra"},
		{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"uppercase span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01"},
		{"uppercase flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A"},
		{"non-hex trace id", "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01"},
		{"non-hex span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bz-01"},
		{"non-hex version", "0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"version ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"wrong separator 1", "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"wrong separator 2", "00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01"},
		{"wrong separator 3", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7_01"},
		{"future version bad tail", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x"},
		{"all dashes", strings.Repeat("-", traceparentLen)},
		{"long garbage", strings.Repeat("z", 200)},
		{"nul bytes", string(make([]byte, traceparentLen))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := ParseTraceparent(tc.in) // must never panic
			if ok {
				t.Fatalf("ParseTraceparent(%q) = ok, want fail-closed", tc.in)
			}
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) leaked partial context %+v", tc.in, sc)
			}
			if sc.Sampled {
				t.Fatalf("malformed header %q inherited sampling bit", tc.in)
			}
		})
	}
}

func TestTraceparentFutureVersion(t *testing.T) {
	// A future version with the 00-shaped prefix parses (forward
	// compatibility), including with dash-separated extension fields.
	for _, wire := range []string{
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra-fields",
	} {
		sc := mustSpanContext(t, wire)
		if !sc.Sampled {
			t.Fatalf("sampled bit lost for %q", wire)
		}
	}
}

func TestTraceparentFlagBits(t *testing.T) {
	// Unknown flag bits are ignored; only bit 0 is the sampling decision.
	base := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-"
	for _, tc := range []struct {
		flags   string
		sampled bool
	}{
		{"00", false}, {"01", true}, {"02", false}, {"03", true}, {"fe", false}, {"ff", true},
	} {
		sc := mustSpanContext(t, base+tc.flags)
		if sc.Sampled != tc.sampled {
			t.Fatalf("flags %s: sampled = %v, want %v", tc.flags, sc.Sampled, tc.sampled)
		}
	}
}

func TestInvalidContextDoesNotPropagate(t *testing.T) {
	var zero SpanContext
	if zero.Valid() {
		t.Fatal("zero SpanContext reports Valid")
	}
	if got := zero.Traceparent(); got != "" {
		t.Fatalf("zero context rendered %q, want empty", got)
	}
	ctx := ContextWithSpan(context.Background(), zero)
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("invalid context stored in ctx")
	}
}

func TestContextCarrier(t *testing.T) {
	src := NewIDSource(7)
	sc := SpanContext{TraceID: src.TraceID(), SpanID: src.SpanID(), Sampled: true}
	ctx := ContextWithSpan(context.Background(), sc)
	got, ok := SpanFromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("SpanFromContext = %+v, %v; want %+v, true", got, ok, sc)
	}
	if _, ok := SpanFromContext(context.Background()); ok {
		t.Fatal("empty ctx yielded a span context")
	}
}

// TestIDSourceDeterminism pins the splitmix64 stream: same seed, same
// IDs, forever. Golden trace exports depend on this.
func TestIDSourceDeterminism(t *testing.T) {
	a, b := NewIDSource(1234), NewIDSource(1234)
	for i := 0; i < 50; i++ {
		if a.TraceID() != b.TraceID() || a.SpanID() != b.SpanID() {
			t.Fatalf("seeded streams diverged at draw %d", i)
		}
	}
	c := NewIDSource(4321)
	if NewIDSource(1234).TraceID() == c.TraceID() {
		t.Fatal("different seeds produced identical first trace ID")
	}
	if NewIDSource(0).TraceID().IsZero() {
		t.Fatal("zero seed degenerated to zero IDs")
	}
}

// TestParseZeroAlloc gates the hot propagation path: parsing any header
// — valid or hostile — must not allocate. Extraction runs on every
// server request whether or not the trace is sampled.
func TestParseZeroAlloc(t *testing.T) {
	inputs := []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"",
		"garbage",
		strings.Repeat("z", 200),
	}
	for _, in := range inputs {
		in := in
		if n := testing.AllocsPerRun(200, func() {
			ParseTraceparent(in)
		}); n != 0 {
			t.Fatalf("ParseTraceparent(%q) allocates %.1f/op, want 0", in, n)
		}
	}
}

// FuzzParseTraceparent feeds the parser what any client can send in its
// traceparent header; the edge hands it every one. Whatever arrives: no
// panic. What is accepted is a valid context whose trace and span IDs are
// the input's own bytes 3–52, and it renders to a header that parses back
// to the same context.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-fe-extra",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) refused but returned %+v", s, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", s, sc)
		}
		wire := sc.Traceparent()
		if wire[3:52] != s[3:52] {
			t.Fatalf("ParseTraceparent(%q): ids render as %q", s, wire[3:52])
		}
		if again, ok := ParseTraceparent(wire); !ok || again != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v renders as %q, which parses to %+v, %v", s, sc, wire, again, ok)
		}
	})
}
