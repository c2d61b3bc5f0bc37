package cluster

// delta.go defines the inter-node wire format: the per-shard sketch delta
// frame exchanged on /v1/cluster/delta. It is JSON on the /v1 surface and
// carries only anonymous coherence metadata — a Bloom filter (bit
// material, no resource IDs, no identity) plus a generation watermark.

// DeltaFrame is one node's published shard sketch: the flattened Bloom
// filter of its possibly-stale resource shard at a generation. Frames are
// idempotent full states rather than incremental diffs — folding the same
// frame twice is a no-op, and a missed exchange round needs no replay,
// which is what keeps the protocol coordinator-free.
type DeltaFrame struct {
	// Node names the publishing member.
	Node string `json:"node"`
	// Generation is the shard sketch's content generation, monotone within
	// Epoch.
	Generation uint64 `json:"generation"`
	// Epoch is the node's sketch epoch: it changes when the node restarts
	// without its history (memory-only, or an unclean recovery), and the
	// merger never compares generations across it.
	Epoch uint64 `json:"epoch"`
	// Sketch is the bloom.Filter MarshalBinary payload (base64 in JSON).
	Sketch []byte `json:"sketch"`
}
