package httpclient

import (
	"net/http"

	"speedkit/internal/proxy"
)

// This file holds the names kept only for the load harness under
// cmd/speedkit-load, whose files change only together with its
// benchmark. proxy.TestHarnessNames lists them; delete each with its last
// caller there.

// New is NewDirect in the pre-split proxy.Transport shape, for callers of
// proxy.New.
func New(base string, hc *http.Client) *proxy.Joined {
	// The transport and its adapter are one allocation, as NewDirect's is.
	j := &struct {
		Transport
		joined proxy.Joined
	}{Transport: newTransport(base, base, hc)}
	j.joined = proxy.Joined{Shared: &j.Transport, First: &j.Transport}
	return &j.joined
}
