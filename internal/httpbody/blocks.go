package httpbody

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// The blocks wire. POST /v1/blocks carries the user ID and then the block
// names; its answer carries one fragment per name, in request order. Each
// of them is a frame: a uvarint length, then that many bytes. Nothing else
// is on the wire — no count, no separator — so no name or fragment byte
// can break the framing, and the answer needs no names: the client knows
// what it asked for.

const (
	// MaxBlocksRequest caps a blocks request body, in bytes.
	MaxBlocksRequest = 4 << 10
	// MaxBlockNames caps the block names one request may ask for.
	MaxBlockNames = 64
)

// ErrBlocksFrame is what every malformed blocks body wraps.
var ErrBlocksFrame = errors.New("httpbody: malformed blocks frame")

// BlocksRequest frames a blocks request body — user ("" for an anonymous
// visitor), then each name — into one exactly-sized buffer.
func BlocksRequest(user string, names []string) []byte {
	n := frameLen(len(user))
	for _, name := range names {
		n += frameLen(len(name))
	}
	b := appendFrame(make([]byte, 0, n), user)
	for _, name := range names {
		b = appendFrame(b, name)
	}
	return b
}

// ReadBlocksRequest reads and parses a blocks request body of at most
// MaxBlocksRequest bytes. The user ID and the names are substrings of one
// copy of the body.
func ReadBlocksRequest(r *http.Request) (user string, names []string, err error) {
	// A body closed once read is not drained again, through a pooled
	// buffer, when the answer is written. One closed short of its end
	// (over the cap) also closes the connection.
	defer r.Body.Close()
	if r.ContentLength > MaxBlocksRequest {
		return "", nil, fmt.Errorf("%w: body of %d bytes, the cap is %d", ErrBlocksFrame, r.ContentLength, MaxBlocksRequest)
	}
	var src io.Reader = r.Body
	if r.ContentLength < 0 {
		src = io.LimitReader(r.Body, MaxBlocksRequest+1)
	}
	body, err := readBody(src, r.ContentLength)
	if err != nil {
		return "", nil, fmt.Errorf("httpbody: read blocks request: %w", err)
	}
	if len(body) > MaxBlocksRequest {
		return "", nil, fmt.Errorf("%w: body over the %d-byte cap", ErrBlocksFrame, MaxBlocksRequest)
	}
	return parseBlocksRequest(string(body))
}

// parseBlocksRequest splits a blocks request body into the user ID and
// between one and MaxBlockNames names, all substrings of body.
func parseBlocksRequest(body string) (user string, names []string, err error) {
	user, rest, err := nextFrame(body)
	if err != nil {
		return "", nil, fmt.Errorf("user ID: %w", err)
	}
	count := 0
	for r := rest; len(r) > 0; count++ {
		if count == MaxBlockNames {
			return "", nil, fmt.Errorf("%w: more than %d names", ErrBlocksFrame, MaxBlockNames)
		}
		if _, r, err = nextFrame(r); err != nil {
			return "", nil, fmt.Errorf("name %d: %w", count, err)
		}
	}
	if count == 0 {
		return "", nil, fmt.Errorf("%w: no block names", ErrBlocksFrame)
	}
	names = make([]string, count)
	for i := range names {
		names[i], rest, _ = nextFrame(rest)
	}
	return user, names, nil
}

// BlocksResponse frames frs[name] for each name, in order, into one
// exactly-sized buffer; a name frs lacks is an empty fragment.
func BlocksResponse(names []string, frs map[string][]byte) []byte {
	n := 0
	for _, name := range names {
		n += frameLen(len(frs[name]))
	}
	b := make([]byte, 0, n)
	for _, name := range names {
		b = appendFrame(b, frs[name])
	}
	return b
}

// ParseBlocksResponse splits a blocks response body into one fragment per
// name asked for. The fragments are slices of body, capped at their own
// length. Fewer fragments than names, a length past the end, or bytes
// after the last fragment is an error.
func ParseBlocksResponse(body []byte, names []string) (map[string][]byte, error) {
	frs := make(map[string][]byte, len(names))
	for i, name := range names {
		fr, rest, err := nextFrame(body)
		if err != nil {
			return nil, fmt.Errorf("fragment %d of %d: %w", i, len(names), err)
		}
		frs[name] = fr[:len(fr):len(fr)]
		body = rest
	}
	if len(body) > 0 {
		return nil, fmt.Errorf("%w: %d bytes after fragment %d of %d", ErrBlocksFrame, len(body), len(names), len(names))
	}
	return frs, nil
}

// frameLen is the framed size of a payload of n bytes.
func frameLen(n int) int {
	var prefix [binary.MaxVarintLen64]byte
	return binary.PutUvarint(prefix[:], uint64(n)) + n
}

func appendFrame[T string | []byte](dst []byte, p T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// nextFrame splits the frame at the head of b off the rest.
func nextFrame[T string | []byte](b T) (frame, rest T, err error) {
	var n uint64
	for i := 0; ; i++ {
		if i == len(b) {
			return frame, rest, fmt.Errorf("%w: length cut short", ErrBlocksFrame)
		}
		c := b[i]
		if i == binary.MaxVarintLen64-1 && c > 1 {
			return frame, rest, fmt.Errorf("%w: length overflows 64 bits", ErrBlocksFrame)
		}
		n |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			// One encoding per length: a trailing zero byte pads it.
			if c == 0 && i > 0 {
				return frame, rest, fmt.Errorf("%w: length not minimally encoded", ErrBlocksFrame)
			}
			b = b[i+1:]
			break
		}
	}
	if n > uint64(len(b)) {
		return frame, rest, fmt.Errorf("%w: length %d past the end (%d bytes left)", ErrBlocksFrame, n, len(b))
	}
	return b[:n], b[n:], nil
}
