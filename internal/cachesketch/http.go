package cachesketch

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/httpbody"
)

// A sketch over HTTP is the compacted filter's bytes as the body (see
// Snapshot.Marshal), the generation in GenerationHeader and its epoch in
// EpochHeader, a Cache-Control that lets shared caches hold it for Δ, the
// standard Age header stating how much of that Δ is already spent, and a
// Content-Length, so every reader down the line takes the body in one
// allocation. WriteHTTP and ReadHTTP are the only code that knows; the
// server, the cluster front and the edge call the one, devices and edges
// the other.
//
// Age is what keeps Δ one Δ across any number of holders: the server sends
// none (age 0), every other holder states how long ago its copy was taken,
// and a reader dates the snapshot at its own send time minus that. Only
// durations cross the wire, so the clocks need not agree. Age travels in
// whole seconds and every writer rounds it up: a reader then never dates a
// snapshot later than the instant the server took it, at the price of up
// to a second of trust per hop.

// GenerationHeader carries Snapshot.Generation.
const GenerationHeader = "X-Sketch-Generation"

// EpochHeader carries Snapshot.Epoch, in hexadecimal. A holder hands on
// the value it received verbatim, and the server formats its own once per
// epoch, so the header costs a sketch response no allocation.
//
// Page answers carry it too: the epoch of the tier that served the copy,
// whose expiration table knows it (see PageEpoch). A device that stored
// the copy before it held a sketch learns from it whether that sketch's
// epoch can vouch for the copy (Client.Note).
const EpochHeader = "X-Sketch-Epoch"

// EpochValue returns the EpochHeader value of epoch e, newly formatted.
func EpochValue(e uint64) []string { return []string{fmt.Sprintf("%016x", e)} }

// EpochValue returns sn's EpochHeader value: the one it was taken or
// received with, shared and read-only, else formatted now; nil for no
// snapshot.
func (sn *Snapshot) EpochValue() []string {
	if sn == nil {
		return nil
	}
	if sn.epochWire != nil {
		return sn.epochWire
	}
	return EpochValue(sn.Epoch)
}

// PageEpoch returns the epoch a page answer states in h, or 0 when it
// states none or one that does not parse: an epoch no sketch carries.
func PageEpoch(h http.Header) uint64 {
	v := h[EpochHeader]
	if len(v) == 0 {
		return 0
	}
	e, err := strconv.ParseUint(v[0], 16, 64)
	if err != nil {
		return 0
	}
	return e
}

// ceilSeconds is d in the unit of the Age header.
func ceilSeconds(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d + time.Second - 1) / time.Second)
}

// Age is how long ago sn was taken by the clock that reads now, as a
// response written at now must state it: whole seconds, rounded up. A
// holder hands sn on only while Age is below MaxAge.
func (sn *Snapshot) Age(now time.Time) time.Duration {
	return time.Duration(ceilSeconds(now.Sub(sn.TakenAt))) * time.Second
}

// WriteHTTP answers a sketch request with sn. cacheControl is the
// Cache-Control value ("public, max-age=<Δ seconds>"): Δ is fixed for a
// deployment's lifetime, so callers render it once. age is how long the
// writer has held sn — zero at the server that just took it, sn.Age(now)
// anywhere else. An error means the filter did not encode and nothing was
// written.
func (sn *Snapshot) WriteHTTP(w http.ResponseWriter, cacheControl string, age time.Duration) error {
	data, err := sn.Marshal()
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	if cacheControl != "" {
		h.Set("Cache-Control", cacheControl)
	}
	if secs := ceilSeconds(age); secs > 0 {
		h.Set("Age", strconv.FormatInt(secs, 10))
	}
	h.Set(GenerationHeader, strconv.FormatUint(sn.Generation, 10))
	h[EpochHeader] = sn.EpochValue()
	h.Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
	return nil
}

// ReadHTTP decodes the 200 response to a sketch request. sent is the
// reader's clock when it sent the request; TakenAt becomes sent minus the
// response's Age: the snapshot was taken no later, so its holder never
// trusts it past Δ, where the arrival time would add the transfer to Δ and
// ignoring Age the time every cache on the path held it. The snapshot
// keeps the body (Marshal returns it, read-only) and the max-age it came
// with, so a holder can hand on exactly what it received. A response
// without a generation or an epoch is refused — Install orders snapshots
// by the one within the other — and so is one whose Age does not parse: a
// tier that cannot prove freshness does not guess.
func ReadHTTP(resp *http.Response, sent time.Time) (*Snapshot, error) {
	gen, err := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cachesketch: sketch response: bad %s: %w", GenerationHeader, err)
	}
	epochWire := resp.Header.Values(EpochHeader)
	if len(epochWire) == 0 {
		return nil, fmt.Errorf("cachesketch: sketch response: no %s", EpochHeader)
	}
	epochWire = epochWire[:1:1]
	epoch, err := strconv.ParseUint(epochWire[0], 16, 64)
	if err != nil {
		return nil, fmt.Errorf("cachesketch: sketch response: bad %s: %w", EpochHeader, err)
	}
	var age uint64
	if stated := resp.Header.Values("Age"); len(stated) > 0 {
		// 32 bits of seconds is 136 years: the subtraction cannot wrap.
		if age, err = strconv.ParseUint(stated[0], 10, 32); err != nil {
			return nil, fmt.Errorf("cachesketch: sketch response: bad Age: %w", err)
		}
	}
	data, err := httpbody.ReadAll(resp)
	if err != nil {
		return nil, fmt.Errorf("cachesketch: sketch response: %w", err)
	}
	f := new(bloom.Filter)
	if err := f.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("cachesketch: sketch decode: %w", err)
	}
	// The cache entry arrives filled: wire is the body, and is never built.
	fc := &flatCache{filter: f, wire: data}
	fc.wireOnce.Do(func() {})
	maxAge, _ := httpbody.ParseMaxAge(resp.Header.Get("Cache-Control"))
	return &Snapshot{
		Filter:     f,
		Generation: gen,
		Epoch:      epoch,
		TakenAt:    sent.Add(-time.Duration(age) * time.Second),
		MaxAge:     maxAge,
		flat:       fc,
		epochWire:  epochWire,
	}, nil
}
