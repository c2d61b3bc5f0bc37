// Package httpclient implements the client proxy's Transport over real
// HTTP against the endpoints served by internal/httpapi. Together with
// cmd/speedkit-server it closes the loop: the same proxy.Proxy that runs
// in-process inside the simulator can drive the protocol across an actual
// network — binary sketch downloads, ETag-conditional page fetches, the
// first-party blocks API, and offline detection on connection failure.
//
// Latencies reported through this transport are measured wall-clock
// round-trip times, not simulated ones.
package httpclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/httpbody"
	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/tracectx"
)

// Transport talks to a Speed Kit HTTP API over its /v1 wire surface.
type Transport struct {
	// base answers pages and the sketch: an edge, or the origin itself.
	base string
	// origin answers the first-party blocks API, the one request that
	// carries a user ID; it is never sent to a shared tier.
	origin string
	hc     *http.Client
	clk    clock.Clock
}

// New creates a transport for the API at base (e.g. "http://host:8080"),
// one host for every request. A nil client uses a default with a 10 s
// timeout.
func New(base string, hc *http.Client) *Transport {
	return NewBehindEdge(base, base, hc)
}

// NewBehindEdge creates a transport for the paper's topology: pages and
// the sketch come from the edge at edgeURL, the personalized blocks from
// the origin at originURL directly, so identity never crosses the shared
// tier. A nil client uses a default with a 10 s timeout.
func NewBehindEdge(edgeURL, originURL string, hc *http.Client) *Transport {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &Transport{
		base:   strings.TrimRight(edgeURL, "/"),
		origin: strings.TrimRight(originURL, "/"),
		hc:     hc,
		clk:    clock.System,
	}
}

// asOffline maps connection-level failures to proxy.ErrOffline so the
// proxy's offline mode engages; application-level errors pass through.
//
// Context cancellation must be checked before the net/url probes:
// http.Client wraps ctx errors in *url.Error, so the blanket url.Error
// branch used to misreport the caller's own deadline or cancellation as
// connectivity loss — engaging offline mode for a request the caller
// abandoned on purpose. Cancellation propagates unchanged so
// errors.Is(err, context.Canceled) keeps working upstream.
func asOffline(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var netErr net.Error
	if errors.As(err, &netErr) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %v", proxy.ErrOffline, err)
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		return fmt.Errorf("%w: %v", proxy.ErrOffline, err)
	}
	// url.Error wraps transport failures (connection refused, DNS, ...).
	var urlErr *url.Error
	if errors.As(err, &urlErr) {
		return fmt.Errorf("%w: %v", proxy.ErrOffline, err)
	}
	return err
}

// statusErr renders a non-success response as an error: 5xx answers are
// transient upstream failures (retryable under proxy.ErrUpstream), 4xx
// are application errors and pass through untyped. The /v1 JSON error
// envelope ({"error":{"code","message"}}) is unwrapped into the message
// when present; any other body (a proxy's, a load balancer's) passes
// through as-is.
func statusErr(op, path string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	detail := strings.TrimSpace(string(raw))
	var env httpbody.ErrorBody
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		detail = env.Error.Code + ": " + env.Error.Message
	}
	err := fmt.Errorf("httpclient: %s %s: %d %s",
		op, path, resp.StatusCode, detail)
	if resp.StatusCode >= 500 {
		return fmt.Errorf("%w: %w", proxy.ErrUpstream, err)
	}
	return err
}

// injectTraceparent stamps the outgoing request with the active span's
// W3C traceparent, if the caller's context carries one. The span context
// holds anonymous identifiers only (trace ID, span ID, sampling bit), so
// the header is safe to send to shared infrastructure. Unsampled loads
// carry no span and send no header — the propagation path stays
// allocation-free when tracing sits idle.
func injectTraceparent(ctx context.Context, req *http.Request) {
	if sc, ok := tracectx.SpanFromContext(ctx); ok {
		req.Header.Set(tracectx.Header, sc.Traceparent())
	}
}

// do issues a ctx-bound request for the /v1 endpoint (e.g. "/page") plus
// query at base. hdr's entries are set on the request (If-None-Match for
// revalidation); the map itself is not kept, so a caller's literal stays
// on its stack.
func (t *Transport) do(ctx context.Context, base, method, endpoint, query string, body io.Reader, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, base+"/v1"+endpoint+query, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	injectTraceparent(ctx, req)
	return t.hc.Do(req)
}

// FetchSketch implements proxy.Transport.
func (t *Transport) FetchSketch(ctx context.Context, _ netsim.Region) (*cachesketch.Snapshot, time.Duration, error) {
	start := t.clk.Now()
	resp, err := t.do(ctx, t.base, http.MethodGet, "/sketch", "", nil, nil)
	if err != nil {
		return nil, 0, asOffline(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, t.clk.Now().Sub(start), statusErr("sketch", "/sketch", resp)
	}
	// The snapshot is stamped with the send (see ReadHTTP). A body cut
	// short is lost connectivity; a body that does not decode is not.
	sn, err := cachesketch.ReadHTTP(resp, start)
	if err != nil {
		return nil, t.clk.Now().Sub(start), asOffline(err)
	}
	return sn, t.clk.Now().Sub(start), nil
}

// parseVersionETag extracts the version from the server's `"v<n>"` ETags.
func parseVersionETag(tag string) uint64 {
	tag = strings.Trim(strings.TrimPrefix(strings.TrimSpace(tag), "W/"), `"`)
	if !strings.HasPrefix(tag, "v") {
		return 0
	}
	v, _ := strconv.ParseUint(tag[1:], 10, 64)
	return v
}

// expiresAt is the expiration a response stating h grants a copy stored
// at now. Any max-age is the freshness, zero included: the server floors
// what is left of the TTL its expiration table holds, so "max-age=0" is a
// copy that table already counts as gone. Only a response without one is
// left unexpiring, to the sketch alone.
func expiresAt(h http.Header, now time.Time) time.Time {
	if maxAge, ok := httpbody.ParseMaxAge(h.Get("Cache-Control")); ok {
		return now.Add(maxAge)
	}
	return time.Time{}
}

// entryFromResponse builds a cache entry from a 200 page response, with
// the epoch the answer states.
func (t *Transport) entryFromResponse(path string, resp *http.Response, body []byte) cache.Entry {
	now := t.clk.Now()
	e := cache.Entry{
		Key:       path,
		Body:      body,
		Version:   parseVersionETag(resp.Header.Get("ETag")),
		StoredAt:  now,
		ExpiresAt: expiresAt(resp.Header, now),
		Epoch:     cachesketch.PageEpoch(resp.Header),
	}
	if blocks := resp.Header.Get("X-Blocks"); blocks != "" {
		e.Metadata = map[string]string{"blocks": blocks}
	}
	return e
}

func sourceFromHeader(h string) proxy.Source {
	switch h {
	case "cdn":
		return proxy.SourceCDN
	case "device":
		return proxy.SourceDevice
	default:
		return proxy.SourceOrigin
	}
}

// staleOr returns src, unless the answer is an edge's stale serve: a copy
// the edge answered from because its upstream failed to refresh it, which
// it says in X-Edge-Cache.
func staleOr(h http.Header, src proxy.Source) proxy.Source {
	if h.Get("X-Edge-Cache") == "stale" {
		return proxy.SourceCDNStale
	}
	return src
}

// Fetch implements proxy.Transport.
func (t *Transport) Fetch(ctx context.Context, _ netsim.Region, path string) (cache.Entry, time.Duration, proxy.Source, error) {
	start := t.clk.Now()
	resp, err := t.do(ctx, t.base, http.MethodGet, "/page", "?path="+url.QueryEscape(path), nil, nil)
	if err != nil {
		return cache.Entry{}, 0, 0, asOffline(err)
	}
	defer resp.Body.Close()
	lat := t.clk.Now().Sub(start)
	if resp.StatusCode != http.StatusOK {
		return cache.Entry{}, lat, 0, statusErr("fetch", path, resp)
	}
	body, err := httpbody.ReadAll(resp)
	if err != nil {
		return cache.Entry{}, lat, 0, asOffline(err)
	}
	lat = t.clk.Now().Sub(start)
	return t.entryFromResponse(path, resp, body), lat, staleOr(resp.Header, sourceFromHeader(resp.Header.Get("X-Served-By"))), nil
}

// Revalidate implements proxy.Transport via If-None-Match.
func (t *Transport) Revalidate(ctx context.Context, _ netsim.Region, path string, knownVersion uint64) (proxy.RevalidationResult, error) {
	start := t.clk.Now()
	hdr := http.Header{}
	hdr.Set("If-None-Match", fmt.Sprintf("%q", "v"+strconv.FormatUint(knownVersion, 10)))
	resp, err := t.do(ctx, t.base, http.MethodGet, "/page", "?path="+url.QueryEscape(path), nil, hdr)
	if err != nil {
		return proxy.RevalidationResult{}, asOffline(err)
	}
	defer resp.Body.Close()
	lat := t.clk.Now().Sub(start)

	switch resp.StatusCode {
	case http.StatusNotModified:
		now := t.clk.Now()
		e := cache.Entry{Key: path, Version: knownVersion, StoredAt: now, ExpiresAt: expiresAt(resp.Header, now),
			Epoch: cachesketch.PageEpoch(resp.Header)}
		return proxy.RevalidationResult{
			NotModified: true, Entry: e, Latency: lat, Source: staleOr(resp.Header, proxy.SourceOrigin),
		}, nil
	case http.StatusOK:
		body, err := httpbody.ReadAll(resp)
		if err != nil {
			return proxy.RevalidationResult{}, asOffline(err)
		}
		return proxy.RevalidationResult{
			Entry:   t.entryFromResponse(path, resp, body),
			Latency: t.clk.Now().Sub(start),
			Source:  staleOr(resp.Header, sourceFromHeader(resp.Header.Get("X-Served-By"))),
		}, nil
	default:
		return proxy.RevalidationResult{}, statusErr("revalidate", path, resp)
	}
}

// FetchBlocks implements proxy.Transport over the first-party API, sent
// to the origin. Only the user ID crosses the wire — the server resolves the session — and it
// travels in the POST body, never in the URL. The fragments are slices of
// the one buffer the answer is read into.
func (t *Transport) FetchBlocks(ctx context.Context, _ netsim.Region, names []string, u *session.User) (map[string][]byte, time.Duration, error) {
	start := t.clk.Now()
	var user string
	if u != nil {
		user = u.ID
	}
	// No Content-Type: a body without one is application/octet-stream
	// (RFC 9110 §8.3), and the server reads nothing else.
	resp, err := t.do(ctx, t.origin, http.MethodPost, "/blocks", "", bytes.NewReader(httpbody.BlocksRequest(user, names)), nil)
	if err != nil {
		return nil, 0, asOffline(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, t.clk.Now().Sub(start), statusErr("blocks", strings.Join(names, ","), resp)
	}
	body, err := httpbody.ReadAll(resp)
	if err != nil {
		return nil, t.clk.Now().Sub(start), asOffline(err)
	}
	frs, err := httpbody.ParseBlocksResponse(body, names)
	if err != nil {
		return nil, t.clk.Now().Sub(start), fmt.Errorf("httpclient: blocks decode: %w", err)
	}
	return frs, t.clk.Now().Sub(start), nil
}

var _ proxy.Transport = (*Transport)(nil)
