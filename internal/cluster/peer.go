package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"speedkit/internal/httpbody"
)

// Peer is the HTTP client for one remote node's /v1/cluster surface: a
// DeltaSource, so the merge layer pulls real frames over the wire.
type Peer struct {
	name string
	base string
	send httpbody.Sender
}

// NewPeer creates a client for the named node at baseURL (e.g.
// "http://127.0.0.1:7101"). Its requests go through hc's Transport under
// its Timeout (see httpbody.Sender); a nil hc is a 10 s timeout over
// http.DefaultTransport. A pull from a hung node fails at the timeout, so
// it cannot hold up the members after it in an exchange round.
func NewPeer(name, baseURL string, hc *http.Client) *Peer {
	return &Peer{name: name, base: baseURL, send: httpbody.NewSender(hc)}
}

// Name returns the peer's member name.
func (p *Peer) Name() string { return p.name }

// decodeError turns a non-2xx response into an error: 503/unavailable
// maps back onto ErrNodeDown so the merge layer treats remote and
// in-process outages identically.
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
	// DeltaSource's Delta takes no context; the Sender's timeout bounds
	// the pull.
	resp, err := p.send.Send(context.TODO(), http.MethodGet, p.base+"/v1/cluster/delta", nil, nil)
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
