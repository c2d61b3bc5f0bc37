package cachesketch

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/httpbody"
)

// A sketch over HTTP is the filter's bytes as the body, the generation in
// GenerationHeader, a Cache-Control that lets shared caches hold it for Δ,
// and a Content-Length, so every reader down the line takes the body in
// one allocation. WriteHTTP and ReadHTTP are the only code that knows; the
// server and the cluster front call the one, devices and edges the other.

// GenerationHeader carries Snapshot.Generation.
const GenerationHeader = "X-Sketch-Generation"

// WriteHTTP answers a sketch request with sn. cacheControl is the
// Cache-Control value ("public, max-age=<Δ seconds>"): Δ is fixed for a
// deployment's lifetime, so callers render it once. An error means the
// filter did not encode and nothing was written.
func (sn *Snapshot) WriteHTTP(w http.ResponseWriter, cacheControl string) error {
	data, err := sn.Marshal()
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Cache-Control", cacheControl)
	h.Set(GenerationHeader, strconv.FormatUint(sn.Generation, 10))
	h.Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
	return nil
}

// ReadHTTP decodes the 200 response to a sketch request. sent is the
// reader's clock when it sent the request and becomes TakenAt: the
// snapshot was taken no earlier, so its holder never trusts it past Δ,
// where the arrival time would add the transfer to Δ. A response without
// a generation is refused — Install orders snapshots by it.
func ReadHTTP(resp *http.Response, sent time.Time) (*Snapshot, error) {
	gen, err := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cachesketch: sketch response: bad %s: %w", GenerationHeader, err)
	}
	data, err := httpbody.ReadAll(resp)
	if err != nil {
		return nil, fmt.Errorf("cachesketch: sketch response: %w", err)
	}
	var f bloom.Filter
	if err := f.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("cachesketch: sketch decode: %w", err)
	}
	return &Snapshot{Filter: &f, Generation: gen, TakenAt: sent}, nil
}
