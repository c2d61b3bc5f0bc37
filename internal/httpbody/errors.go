package httpbody

import (
	"encoding/json"
	"net/http"
)

// Error codes of the /v1 wire surface: clients branch on the
// machine-readable code, humans read the message, and both travel in one
// JSON document regardless of which tier or handler produced the failure.
const (
	// CodeBadRequest: the request is malformed (missing or unparsable
	// parameter). Retrying without change cannot succeed.
	CodeBadRequest = "bad_request"
	// CodeNotFound: the referenced resource (page path, product) does not
	// exist at the origin.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists, under another method (the
	// Allow header names it).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnavailable: a transient service-side failure; the request is
	// safe to retry (the client resilience layer maps 5xx to ErrUpstream).
	CodeUnavailable = "unavailable"
	// CodeInternal: an unexpected service-side error.
	CodeInternal = "internal"
)

// ErrorBody is the JSON error envelope every HTTP surface in the tree —
// server, edge, cluster node, cluster front — returns on failure, and the
// one type their clients decode it with:
//
//	{"error":{"code":"not_found","message":"render /nope: no route"}}
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable code and the human-readable
// message of one failure.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteError emits the envelope with the given HTTP status. It is the
// only failure path handlers use; http.Error and its text/plain bodies
// appear nowhere.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}
