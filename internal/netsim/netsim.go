// Package netsim models wide-area network latency for the field
// experiments. Speed Kit's value proposition depends on geography: a
// client far from the origin pays hundreds of milliseconds per round trip,
// while a nearby CDN edge answers in tens. This package reproduces those
// regimes with a deterministic, seedable latency model: each link has a
// base round-trip time, log-normal jitter, a bandwidth term for payload
// transfer, and a loss probability that adds retransmission penalties.
//
// Nothing here sleeps. Links return durations; the simulation harness adds
// them to virtual time, which is how 30 days of traffic replay in
// milliseconds of wall-clock.
//
// Node names (ClientNode, EdgeNode) are constants for the canonical
// regions, so naming a link on the request path allocates nothing.
package netsim

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Region is a coarse client/server location.
type Region string

// Canonical regions used by the field benchmarks.
const (
	EU   Region = "eu"
	US   Region = "us"
	APAC Region = "apac"
)

// Regions lists the canonical regions in report order.
func Regions() []Region { return []Region{EU, US, APAC} }

// Link models one network path.
type Link struct {
	// RTT is the median round-trip time.
	RTT time.Duration
	// Jitter is the sigma of the log-normal multiplier applied to RTT.
	// 0.15–0.35 matches wide-area measurements; 0 disables jitter.
	Jitter float64
	// Bandwidth is the transfer rate in bytes/second used for the payload
	// serialization term. 0 means infinite (no size term).
	Bandwidth float64
	// Loss is the probability that a round trip must be retried once,
	// adding a full extra RTT (a first-order TCP retransmission model).
	Loss float64
}

// Sample draws the duration of one request/response exchange carrying
// payloadBytes of response body.
func (l Link) Sample(rng *rand.Rand, payloadBytes int) time.Duration {
	rtt := float64(l.RTT)
	if l.Jitter > 0 {
		rtt *= math.Exp(rng.NormFloat64() * l.Jitter)
	}
	d := rtt
	if l.Bandwidth > 0 && payloadBytes > 0 {
		d += float64(payloadBytes) / l.Bandwidth * float64(time.Second)
	}
	if l.Loss > 0 && rng.Float64() < l.Loss {
		d += rtt // one retransmission
	}
	return time.Duration(d)
}

// Network is a topology of named links with a shared deterministic RNG.
// Safe for concurrent use.
type Network struct {
	mu    sync.Mutex
	rng   *rand.Rand
	links map[string]Link
}

// NewNetwork creates an empty topology seeded deterministically.
func NewNetwork(seed int64) *Network {
	return &Network{
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[string]Link),
	}
}

func linkKey(from, to string) string { return from + "->" + to }

// SetLink installs the link for the (from, to) pair.
func (n *Network) SetLink(from, to string, l Link) {
	n.mu.Lock()
	n.links[linkKey(from, to)] = l
	n.mu.Unlock()
}

// Link returns the configured link and whether it exists.
func (n *Network) Link(from, to string) (Link, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[linkKey(from, to)]
	return l, ok
}

// Latency samples one exchange over the (from, to) link. Unknown links
// fall back to a conservative intercontinental default so that a topology
// misconfiguration shows up as slowness rather than a crash.
func (n *Network) Latency(from, to string, payloadBytes int) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[linkKey(from, to)]
	if !ok {
		l = Link{RTT: 300 * time.Millisecond, Jitter: 0.3, Bandwidth: 2e6, Loss: 0.02}
	}
	return l.Sample(n.rng, payloadBytes)
}

// Node names used by the default topology. Clients are addressed as
// ClientNode(region), edges as EdgeNode(region); the origin is a single
// node in the EU, matching the single-region deployment the paper's
// e-commerce customers run.
const (
	OriginNode = "origin"
)

// ClientNode returns the node name for a client in region r, "client-"
// and the region: a constant for the canonical regions, which every
// simulated request names.
func ClientNode(r Region) string {
	switch r {
	case EU:
		return "client-eu"
	case US:
		return "client-us"
	case APAC:
		return "client-apac"
	}
	return "client-" + string(r)
}

// EdgeNode returns the node name for the CDN edge serving region r,
// "edge-" and the region, a constant for the canonical regions.
func EdgeNode(r Region) string {
	switch r {
	case EU:
		return "edge-eu"
	case US:
		return "edge-us"
	case APAC:
		return "edge-apac"
	}
	return "edge-" + string(r)
}

// DefaultTopology builds the field-study topology: one origin in the EU,
// one CDN edge per region ~15 ms from its clients, and client→origin
// paths whose RTT grows with distance. Bandwidths model last-mile
// connections (clients) and well-peered data-center paths (edges).
func DefaultTopology(seed int64) *Network {
	n := NewNetwork(seed)
	clientBW := 4e6   // 4 MB/s last mile
	backboneBW := 5e7 // 50 MB/s DC-to-DC

	edgeRTT := map[Region]time.Duration{EU: 12 * time.Millisecond, US: 16 * time.Millisecond, APAC: 22 * time.Millisecond}
	originRTT := map[Region]time.Duration{EU: 35 * time.Millisecond, US: 110 * time.Millisecond, APAC: 260 * time.Millisecond}

	for _, r := range Regions() {
		// Client to local edge: short, low-jitter.
		n.SetLink(ClientNode(r), EdgeNode(r), Link{RTT: edgeRTT[r], Jitter: 0.2, Bandwidth: clientBW, Loss: 0.005})
		// Client direct to origin: distance-dependent.
		n.SetLink(ClientNode(r), OriginNode, Link{RTT: originRTT[r], Jitter: 0.3, Bandwidth: clientBW, Loss: 0.01})
		// Edge to origin: backbone quality.
		n.SetLink(EdgeNode(r), OriginNode, Link{RTT: originRTT[r] - edgeRTT[r]/2, Jitter: 0.15, Bandwidth: backboneBW, Loss: 0.002})
	}
	return n
}

// DeviceLatency models on-device work that needs no network: service
// worker cache lookups and dynamic-block assembly. Returned durations are
// sub-millisecond with light jitter.
func (n *Network) DeviceLatency() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	base := 300 * time.Microsecond
	return base + time.Duration(n.rng.Int63n(int64(400*time.Microsecond)))
}
