package httpapi

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"speedkit/internal/tracectx"
)

// TestTraceparentMalformedFallsBackToFreshRoot pins the fail-closed
// half of propagation at the HTTP surface: a damaged traceparent must
// never panic the handler, never be adopted, and never smuggle in a
// sampling decision — the server starts a fresh local root instead.
func TestTraceparentMalformedFallsBackToFreshRoot(t *testing.T) {
	_, ts, _ := newTestAPI(t)

	bogus := []string{
		"",       // absent
		"00",     // truncated at the version
		"00-abc", // truncated trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g", // bad flag hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // all-zero span ID
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad version
	}
	for _, h := range bogus {
		resp, _ := get(t, ts.URL+"/v1/page?path=/product/p00042", tracectx.Header, h)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traceparent %q: status %d, want 200", h, resp.StatusCode)
		}
	}
	if id, ok := tracectx.ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736"); !ok {
		t.Fatal("ParseTraceID rejected a well-formed ID")
	} else if n := len(newTestTracerByID(t, ts, id)); n != 0 {
		t.Fatalf("server adopted %d traces from malformed headers carrying that trace ID, want 0", n)
	}
}

// newTestTracerByID queries the /debug/traces/{id} endpoint and returns
// the decoded trace count — exercising the by-ID route end to end.
func newTestTracerByID(t *testing.T, ts *httptest.Server, id tracectx.TraceID) []byte {
	t.Helper()
	resp, body := get(t, ts.URL+"/debug/traces/"+id.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/{id}: status %d", resp.StatusCode)
	}
	if body == "[]\n" || body == "[]" {
		return nil
	}
	return []byte(body)
}

// TestTraceparentUnsampledParentSuppressesServerTrace pins the other
// direction of head-based sampling: a valid parent with the sampled bit
// clear means the whole request is untraced on the server too.
func TestTraceparentUnsampledParentSuppressesServerTrace(t *testing.T) {
	api, ts, _ := newTestAPI(t)

	const header = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	resp, _ := get(t, ts.URL+"/v1/page?path=/product/p00042", tracectx.Header, header)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	id, _ := tracectx.ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	if got := api.svc.Tracer().ByTraceID(id); len(got) != 0 {
		t.Fatalf("unsampled parent produced %d server traces, want 0", len(got))
	}
}
