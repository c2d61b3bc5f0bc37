package speedkit

import "speedkit/internal/edge"

// Edge is the streaming HTTP caching reverse proxy that fronts a
// speedkit-server (see cmd/speedkit-edge for the deployable command):
// sketch-coherent page bodies are cached and coalesced at the edge, which
// answers pages, the sketch and purges and 404s everything else. A device
// sends its personalized blocks to the origin, so the process never sees
// identity — the GDPR boundary enforced at a real socket.
type Edge = edge.Proxy

// EdgeOptions parameterizes NewEdge.
type EdgeOptions = edge.Options

// EdgeRecovery reports what NewEdge recovered from the disk tier.
type EdgeRecovery = edge.RecoveryInfo

// EdgeStats is a point-in-time copy of the edge counters.
type EdgeStats = edge.Stats

// NewEdge builds an edge cache in front of the server at
// EdgeOptions.Upstream and, when a cache directory is configured,
// recovers its disk tier.
func NewEdge(o EdgeOptions) (*Edge, EdgeRecovery, error) { return edge.New(o) }
