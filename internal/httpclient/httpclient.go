// Package httpclient implements the client proxy's two channels,
// proxy.Shared and proxy.FirstParty, over real HTTP against the endpoints
// served by internal/httpapi. Together with cmd/speedkit-server it closes
// the loop: the same proxy.Proxy that runs in-process inside the
// simulator can drive the protocol across an actual network — binary
// sketch downloads, ETag-conditional page fetches, the first-party blocks
// API, and offline detection on connection failure.
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
	"strings"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/httpbody"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

// Transport talks to a Speed Kit HTTP API over its /v1 wire surface.
type Transport struct {
	// base answers pages and the sketch: an edge, or the origin itself.
	base string
	// origin answers the first-party blocks API, the one request that
	// carries a user ID; it is never sent to a shared tier.
	origin string
	send   httpbody.Sender
	// clk dates the copies fetched and stamps a sketch with its send.
	clk clock.Clock
}

// NewDirect creates a transport for the API at base (e.g.
// "http://host:8080"), one host for every request: a device with no edge
// in front of the server. Requests go through hc's Transport under its
// Timeout (see httpbody.Sender); a nil hc is a 10 s timeout over
// http.DefaultTransport. No redirect is followed.
func NewDirect(base string, hc *http.Client) *Transport {
	return NewBehindEdge(base, base, hc)
}

// NewBehindEdge creates a transport for the paper's topology: pages and
// the sketch come from the edge at edgeURL, the personalized blocks from
// the origin at originURL directly, so identity never crosses the shared
// tier. hc is used as NewDirect uses it.
func NewBehindEdge(edgeURL, originURL string, hc *http.Client) *Transport {
	t := newTransport(edgeURL, originURL, hc)
	return &t
}

func newTransport(edgeURL, originURL string, hc *http.Client) Transport {
	return Transport{
		base:   strings.TrimRight(edgeURL, "/"),
		origin: strings.TrimRight(originURL, "/"),
		send:   httpbody.NewSender(hc),
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

// do issues a ctx-bound request for the /v1 endpoint (e.g. "/page") plus
// query at base. hdr's entries are set on the request (If-None-Match for
// revalidation); the map itself is not kept, so a caller's literal stays
// on its stack. A sampled load's request carries its traceparent; an
// unsampled load carries no span and sends no header.
func (t *Transport) do(ctx context.Context, base, method, endpoint, query string, body io.Reader, hdr http.Header) (*http.Response, error) {
	return t.send.Send(ctx, method, base+"/v1"+endpoint+query, body, hdr)
}

// FetchSketch implements proxy.Shared.
func (t *Transport) FetchSketch(ctx context.Context) (*cachesketch.Snapshot, error) {
	sent := t.clk.Now()
	resp, err := t.do(ctx, t.base, http.MethodGet, "/sketch", "", nil, nil)
	if err != nil {
		return nil, asOffline(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr("sketch", "/sketch", resp)
	}
	// The snapshot is stamped with the send (see ReadHTTP). A body cut
	// short is lost connectivity; a body that does not decode is not.
	sn, err := cachesketch.ReadHTTP(resp, sent)
	if err != nil {
		return nil, asOffline(err)
	}
	return sn, nil
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
	version, _ := httpbody.ParseETag(resp.Header.Get("ETag"))
	e := cache.Entry{
		Key:       path,
		Body:      body,
		Version:   version,
		StoredAt:  now,
		ExpiresAt: expiresAt(resp.Header, now),
		Epoch:     cachesketch.PageEpoch(resp.Header),
	}
	if blocks := resp.Header.Get("X-Blocks"); blocks != "" {
		e.Metadata = map[string]string{"blocks": blocks}
	}
	return e
}

// source reads the tier that answered from h. An edge states it in
// X-Edge-Cache: a hit, or a copy the edge revalidated and answered from,
// is the CDN's; a stale serve is a copy the edge answered from because its
// upstream failed to refresh it. An edge states no X-Served-By on either,
// so only what it relays (a miss, a coalesced follower) or a direct
// answer names its tier there; an answer that names none is the origin's.
func source(h http.Header) proxy.Source {
	switch h.Get("X-Edge-Cache") {
	case "hit", "revalidated":
		return proxy.SourceCDN
	case "stale":
		return proxy.SourceCDNStale
	}
	switch h.Get("X-Served-By") {
	case "cdn":
		return proxy.SourceCDN
	case "device":
		return proxy.SourceDevice
	default:
		return proxy.SourceOrigin
	}
}

// Fetch implements proxy.Shared.
func (t *Transport) Fetch(ctx context.Context, path string) (cache.Entry, proxy.Source, error) {
	resp, err := t.do(ctx, t.base, http.MethodGet, "/page", "?path="+httpbody.QueryValue(path), nil, nil)
	if err != nil {
		return cache.Entry{}, 0, asOffline(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cache.Entry{}, 0, statusErr("fetch", path, resp)
	}
	body, err := httpbody.ReadAll(resp)
	if err != nil {
		return cache.Entry{}, 0, asOffline(err)
	}
	return t.entryFromResponse(path, resp, body), source(resp.Header), nil
}

// Revalidate implements proxy.Shared via If-None-Match.
func (t *Transport) Revalidate(ctx context.Context, path string, knownVersion uint64) (proxy.RevalidationResult, error) {
	hdr := http.Header{"If-None-Match": {httpbody.ETag(knownVersion)}}
	resp, err := t.do(ctx, t.base, http.MethodGet, "/page", "?path="+httpbody.QueryValue(path), nil, hdr)
	if err != nil {
		return proxy.RevalidationResult{}, asOffline(err)
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusNotModified:
		now := t.clk.Now()
		e := cache.Entry{Key: path, Version: knownVersion, StoredAt: now, ExpiresAt: expiresAt(resp.Header, now),
			Epoch: cachesketch.PageEpoch(resp.Header)}
		return proxy.RevalidationResult{NotModified: true, Entry: e, Source: source(resp.Header)}, nil
	case http.StatusOK:
		body, err := httpbody.ReadAll(resp)
		if err != nil {
			return proxy.RevalidationResult{}, asOffline(err)
		}
		return proxy.RevalidationResult{
			Entry:  t.entryFromResponse(path, resp, body),
			Source: source(resp.Header),
		}, nil
	default:
		return proxy.RevalidationResult{}, statusErr("revalidate", path, resp)
	}
}

// FetchBlocks implements proxy.FirstParty over the first-party API, sent
// to the origin. Only the user ID crosses the wire — the server resolves
// the session — and it travels in the POST body, never in the URL. The
// fragments, one per name in request order, are slices of the one buffer
// the answer is read into.
func (t *Transport) FetchBlocks(ctx context.Context, names []string, u *session.User) ([][]byte, error) {
	var user string
	if u != nil {
		user = u.ID
	}
	// No Content-Type: a body without one is application/octet-stream
	// (RFC 9110 §8.3), and the server reads nothing else.
	resp, err := t.do(ctx, t.origin, http.MethodPost, "/blocks", "", bytes.NewReader(httpbody.BlocksRequest(user, names)), nil)
	if err != nil {
		return nil, asOffline(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr("blocks", strings.Join(names, ","), resp)
	}
	body, err := httpbody.ReadAll(resp)
	if err != nil {
		return nil, asOffline(err)
	}
	frs, err := httpbody.ParseBlocksResponse(body, len(names))
	if err != nil {
		return nil, fmt.Errorf("httpclient: blocks decode: %w", err)
	}
	return frs, nil
}

var (
	_ proxy.Shared     = (*Transport)(nil)
	_ proxy.FirstParty = (*Transport)(nil)
)
