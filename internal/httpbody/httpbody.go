// Package httpbody holds what every HTTP tier says the same way and none
// may import from another — the device transport (internal/httpclient),
// the edge, the server's API and the cluster sit on different sides of
// the GDPR fence: how a response body is read (ReadAll) and the JSON
// error envelope (ErrorBody, WriteError). It sees bytes and status codes,
// never identity.
package httpbody

import (
	"io"
	"net/http"
)

// MaxReserve bounds the allocation made on the strength of a declared
// Content-Length alone; a longer body is still read, into a buffer that
// grows as its bytes arrive.
const MaxReserve = 64 << 20

// ReadAll reads resp.Body to its end. A body of declared length lands in
// one allocation of exactly that size — io.ReadAll would grow a buffer
// through half a dozen sizes and return the last with its slack — and one
// that ends short of the declaration is io.ErrUnexpectedEOF.
func ReadAll(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > MaxReserve {
		return io.ReadAll(resp.Body)
	}
	// net/http returns io.EOF together with the last bytes of a sized
	// body, so filling the buffer also sees the end of the stream and the
	// connection goes back to the idle pool.
	body := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}
