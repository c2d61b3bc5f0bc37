package httpbody

import (
	"net/http"
	"time"
)

// How long a tier's server waits on a client that says nothing. A
// connection whose request header has not arrived whole within
// ReadHeaderTimeout, or that sits idle between requests for IdleTimeout,
// is closed, so a slow or silent client cannot hold a connection and its
// goroutine open for good. No deadline bounds a body or a handler: the
// one request body a tier reads is capped in size (MaxBlocksRequest).
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewServer is the http.Server a tier's binary listens with: h at addr,
// under ReadHeaderTimeout and IdleTimeout.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}
