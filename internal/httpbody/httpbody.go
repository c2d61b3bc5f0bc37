// Package httpbody holds what every HTTP tier says the same way and none
// may import from another — the device transport (internal/httpclient),
// the edge, the server's API and the cluster sit on different sides of
// the GDPR fence: how a response body is read (ReadAll), how long a
// response may be kept (ParseMaxAge), a page's validator (ETag,
// ParseETag, MatchETag), the path a page request names (QueryValue to
// send it, PathParam to read it), the JSON error envelope (ErrorBody,
// WriteError), the frames of the first-party blocks wire (blocks.go) and
// the timeouts a tier's server holds a silent client to (NewServer).
// It sees bytes and status codes; the one identity it handles is the user
// ID a blocks request frames, which it keeps nowhere.
package httpbody

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
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
	return readBody(resp.Body, resp.ContentLength)
}

// readBody reads r to its end, into one buffer of n bytes when n is a
// declared length of at most MaxReserve.
func readBody(r io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > MaxReserve {
		return io.ReadAll(r)
	}
	// net/http returns io.EOF together with the last bytes of a sized
	// body, so filling the buffer also sees the end of the stream and the
	// connection goes back to the idle pool.
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			// Nothing at all arrived of a body declared non-empty: as
			// short as any other.
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// ParseMaxAge reads the max-age directive of a Cache-Control value. A
// value past 2³¹ seconds counts as 2³¹−1 (RFC 9111 §1.2.2), so the
// duration never overflows; no directive, or one that is not a
// non-negative integer, is false.
func ParseMaxAge(cacheControl string) (time.Duration, bool) {
	for rest, more := cacheControl, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		value, ok := strings.CutPrefix(strings.TrimSpace(part), "max-age=")
		if !ok {
			continue
		}
		secs, err := strconv.ParseInt(value, 10, 32)
		if (err != nil && !errors.Is(err, strconv.ErrRange)) || secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	return 0, false
}
