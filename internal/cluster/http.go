package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"speedkit/internal/httpbody"
)

// http.go is the /v1/cluster surface: the endpoints one node serves to
// its peers and to the merge layer (NodeHandler), and the ones the
// deployment's front serves to devices, edges and routers (FrontHandler).
// Failures travel in the tree's one JSON error envelope
// (httpbody.ErrorBody).

// writeJSON emits one JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// reportRequest is the body of POST /v1/cluster/report: the coherence
// reports a router forwards to the shard owner. Keys are resource IDs —
// anonymous coherence metadata only; the piiflow analyzer treats the
// peer-side writer as a sink so identity can never reach a frame.
type reportRequest struct {
	// Writes lists written resource IDs.
	Writes []string `json:"writes,omitempty"`
	// Reads lists cache-fill reports.
	Reads []readReport `json:"reads,omitempty"`
}

// readReport is one cache-fill: a resource ID and when the copy expires.
type readReport struct {
	Key       string    `json:"key"`
	ExpiresAt time.Time `json:"expires_at"`
}

// reporter is what POST /v1/cluster/report applies its body to: one node,
// or the cluster, which routes each key to its shard owner.
type reporter interface {
	ReportWrites(keys []string) error
	ReportCachedRead(key string, expiresAt time.Time) error
}

// reportHandler decodes one reportRequest and applies it to to.
func reportHandler(to reporter) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpbody.WriteError(w, http.StatusMethodNotAllowed, httpbody.CodeBadRequest, "POST only")
			return
		}
		var req reportRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "bad report body: "+err.Error())
			return
		}
		if len(req.Writes) > 0 {
			if err := to.ReportWrites(req.Writes); err != nil {
				writeNodeError(w, err)
				return
			}
		}
		for _, rr := range req.Reads {
			if rr.Key == "" {
				httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "read report without key")
				return
			}
			if err := to.ReportCachedRead(rr.Key, rr.ExpiresAt); err != nil {
				writeNodeError(w, err)
				return
			}
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// getOnly answers anything but a GET with 405 in the envelope.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpbody.WriteError(w, http.StatusMethodNotAllowed, httpbody.CodeBadRequest, "GET only")
			return
		}
		h(w, r)
	}
}

func notFound(w http.ResponseWriter, r *http.Request) {
	httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "no such cluster endpoint: "+r.URL.Path)
}

// NodeHandler serves one node's /v1/cluster surface:
//
//	GET  /v1/cluster/delta  — the node's current DeltaFrame
//	GET  /v1/cluster/ring   — the deployment's ring layout
//	POST /v1/cluster/report — routed write / cached-read reports
//
// A down node answers everything 503 {"error":{"code":"unavailable"}} —
// the signal a router maps back onto ErrNodeDown.
func NodeHandler(n *Node, ring *Ring) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/delta", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		frame, err := n.Delta()
		if err != nil {
			writeNodeError(w, err)
			return
		}
		writeJSON(w, frame)
	}))
	mux.HandleFunc("/v1/cluster/ring", getOnly(func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, ring.Info()) }))
	mux.HandleFunc("/v1/cluster/report", reportHandler(n))
	mux.HandleFunc("/", notFound)
	return mux
}

// FrontHandler serves the deployment's front, what devices, edges and
// routers are pointed at:
//
//	GET  /v1/sketch         — the merged client sketch, as speedkit-server
//	                          serves its own (cachesketch.WriteHTTP),
//	                          cacheable for delta
//	GET  /v1/cluster/ring   — the ring layout
//	POST /v1/cluster/report — reports, each key routed to its shard owner
//	GET  /healthz           — members, merged generation, routing counters
func FrontHandler(c *Cluster, delta time.Duration) http.Handler {
	cacheControl := "public, max-age=" + strconv.Itoa(int(delta.Seconds()))
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sketch", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		if err := c.Snapshot().WriteHTTP(w, cacheControl, 0); err != nil {
			httpbody.WriteError(w, http.StatusInternalServerError, httpbody.CodeInternal, err.Error())
		}
	}))
	mux.HandleFunc("/v1/cluster/ring", getOnly(func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, c.Ring().Info()) }))
	mux.HandleFunc("/v1/cluster/report", reportHandler(c))
	mux.HandleFunc("/healthz", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"status":     "ok",
			"members":    c.Ring().Members(),
			"generation": c.Snapshot().Generation,
			"stats":      c.Stats(),
		})
	}))
	mux.HandleFunc("/", notFound)
	return mux
}

// writeNodeError maps node failures onto the envelope: a down node is
// 503/unavailable (retryable), anything else 500/internal.
func writeNodeError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNodeDown) {
		httpbody.WriteError(w, http.StatusServiceUnavailable, httpbody.CodeUnavailable, err.Error())
		return
	}
	httpbody.WriteError(w, http.StatusInternalServerError, httpbody.CodeInternal, err.Error())
}
