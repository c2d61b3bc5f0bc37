package cluster

import (
	"encoding/json"
	"errors"
	"net/http"

	"speedkit/internal/httpbody"
)

// http.go is the one endpoint a node serves its merge layer. Failures
// travel in the tree's one JSON error envelope (httpbody.ErrorBody).

// NodeHandler serves one node's /v1/cluster surface:
//
//	GET /v1/cluster/delta — the node's current DeltaFrame
//
// A down node answers 503 {"error":{"code":"unavailable"}} — the signal a
// Peer maps back onto ErrNodeDown.
func NodeHandler(n *Node) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/delta", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpbody.WriteError(w, http.StatusMethodNotAllowed, httpbody.CodeBadRequest, "GET only")
			return
		}
		frame, err := n.Delta()
		if err != nil {
			writeNodeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(frame)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "no such cluster endpoint: "+r.URL.Path)
	})
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
