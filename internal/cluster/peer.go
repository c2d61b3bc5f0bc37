package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"speedkit/internal/httpbody"
)

// Peer is the HTTP client for one remote node's /v1/cluster surface. It
// implements DeltaSource (so the merge layer pulls real frames over the
// wire) and mirrors the routed-report writers, which is how a router
// forwards coherence traffic to a node in another process.
type Peer struct {
	name string
	base string
	hc   *http.Client
}

// NewPeer creates a client for the named node at baseURL (e.g.
// "http://127.0.0.1:7101"). A nil hc uses http.DefaultClient.
func NewPeer(name, baseURL string, hc *http.Client) *Peer {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Peer{name: name, base: baseURL, hc: hc}
}

// Name returns the peer's member name.
func (p *Peer) Name() string { return p.name }

// decodeError turns a non-2xx response into an error: 503/unavailable
// maps back onto ErrNodeDown so routers treat remote and in-process
// outages identically.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var eb httpbody.ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error.Code != "" {
		if eb.Error.Code == httpbody.CodeUnavailable {
			return fmt.Errorf("%w (peer: %s)", ErrNodeDown, eb.Error.Message)
		}
		return fmt.Errorf("cluster: peer %s: %s", eb.Error.Code, eb.Error.Message)
	}
	return fmt.Errorf("cluster: peer status %d", resp.StatusCode)
}

// Delta fetches the node's current frame from /v1/cluster/delta. A
// connection failure reports the node down — from the merge layer's
// perspective an unreachable node and a dead one degrade identically.
func (p *Peer) Delta() (DeltaFrame, error) {
	resp, err := p.hc.Get(p.base + "/v1/cluster/delta")
	if err != nil {
		return DeltaFrame{}, fmt.Errorf("%w: %v", ErrNodeDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return DeltaFrame{}, decodeError(resp)
	}
	var frame DeltaFrame
	if err := json.NewDecoder(resp.Body).Decode(&frame); err != nil {
		return DeltaFrame{}, fmt.Errorf("cluster: peer delta decode: %w", err)
	}
	return frame, nil
}

// Ring fetches the node's view of the ring layout from /v1/cluster/ring.
func (p *Peer) Ring() (RingInfo, error) {
	resp, err := p.hc.Get(p.base + "/v1/cluster/ring")
	if err != nil {
		return RingInfo{}, fmt.Errorf("%w: %v", ErrNodeDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return RingInfo{}, decodeError(resp)
	}
	var info RingInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return RingInfo{}, fmt.Errorf("cluster: peer ring decode: %w", err)
	}
	return info, nil
}

// report POSTs one reportRequest to /v1/cluster/report. This is the
// inter-node frame writer piiflow treats as a sink: only anonymous
// resource IDs may reach it.
func (p *Peer) report(req reportRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := p.hc.Post(p.base+"/v1/cluster/report", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNodeDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}

// ReportWrites forwards a batch of write reports to the remote shard.
func (p *Peer) ReportWrites(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	return p.report(reportRequest{Writes: keys})
}

// ReportCachedRead forwards one cache-fill report to the remote shard.
func (p *Peer) ReportCachedRead(key string, expiresAt time.Time) error {
	return p.report(reportRequest{Reads: []readReport{{Key: key, ExpiresAt: expiresAt}}})
}
