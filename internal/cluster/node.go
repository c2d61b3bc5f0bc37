package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/durable"
	"speedkit/internal/invalidb"
	"speedkit/internal/query"
	"speedkit/internal/storage"
	"speedkit/internal/ttl"
)

// ErrNodeDown is returned by every operation against a killed node until
// Recover brings it back. Callers treat it like any unavailable upstream:
// the operation did not happen and must not be acknowledged.
var ErrNodeDown = errors.New("cluster: node is down")

// NodeConfig parameterizes one node.
type NodeConfig struct {
	// Member is the node's member name on the ring; a lone node needs none.
	Member string
	// Clock drives the sketch, the estimator and the matcher (default
	// system clock). A deployment's nodes share one clock source.
	Clock clock.Clock
	// SketchCapacity / SketchFPR size the node's sketch (default 10000 and
	// 0.05). Every node of a cluster MUST use identical values: the merge
	// layer rejects frames whose Bloom parameters disagree.
	SketchCapacity uint64
	SketchFPR      float64
	// Durable, when non-nil, persists the node's sketch and estimator: the
	// sketch journals through it, writes snapshot it when it is due, and
	// NewNode and Recover rebuild from it, under a new epoch unless the
	// log proves nothing was lost. Create it with durable.New over a
	// directory of the node's own. Nil runs the node memory-only.
	Durable *durable.Store
}

func (c *NodeConfig) applyDefaults() {
	if c.Clock == nil {
		c.Clock = clock.System
	}
	if c.SketchCapacity == 0 {
		c.SketchCapacity = 10000
	}
	if c.SketchFPR <= 0 || c.SketchFPR >= 1 {
		c.SketchFPR = 0.05
	}
}

// Readout is what a kernel tells an operator about itself.
type Readout struct {
	// Members names the ring's members; nil for a lone node.
	Members []string
	// Sketch sums the sketch counters of the live members.
	Sketch cachesketch.ServerStats
	// SketchBytes is the length of the sketch a device asking now would
	// download.
	SketchBytes int
}

// Node is the coherence kernel: a Cache Sketch server, a TTL estimator,
// an InvaliDB matcher, the optional durable store behind the first two,
// and the sketch's epoch. One node is a whole single-process deployment;
// a Cluster shards the same calls across several. Safe for concurrent
// use.
//
// The parts are built once and never swapped: Kill and Recover act on
// them in place, so no call takes a node mutex — a killed node refuses
// its reports, its matcher and its Delta by one atomic flag. The sketch
// reads (Snapshot, Generation, Epoch, Contains, Readout) are a lone
// node's, which nothing kills in place; a Cluster reads them only from
// a node that is up. The matcher's registrations survive a
// kill: continuous-query registrations are soft state the routing layer
// owns (clients re-subscribe on reconnect in the production system), so
// the recovered node answers for the same set.
type Node struct {
	cfg    NodeConfig
	sketch *cachesketch.Server
	est    *ttl.Estimator
	engine *invalidb.Engine
	down   atomic.Bool

	mu          sync.Mutex           // serializes Kill, Recover and Close
	recovery    durable.RecoveryInfo // guarded by mu
	recoveryErr error                // guarded by mu
}

// NewNode builds a node and, when durable, recovers it: a node over a
// directory with prior state comes back in its old epoch or a new one
// exactly as a restarted single-process server does. A failed recovery
// leaves the node serving memory-only state; Recovery reports it.
func NewNode(cfg NodeConfig) *Node {
	cfg.applyDefaults()
	var journal cachesketch.Journal
	if cfg.Durable != nil {
		journal = cfg.Durable
	}
	n := &Node{
		cfg: cfg,
		sketch: cachesketch.NewServer(cachesketch.ServerConfig{
			Capacity:          cfg.SketchCapacity,
			FalsePositiveRate: cfg.SketchFPR,
			Clock:             cfg.Clock,
			Journal:           journal,
		}),
		est:    ttl.NewEstimator(ttl.Config{Clock: cfg.Clock}),
		engine: invalidb.New(invalidb.Config{Clock: cfg.Clock}),
	}
	if cfg.Durable != nil {
		n.recovery, n.recoveryErr = cfg.Durable.Recover(n.sketch, n.est)
	}
	return n
}

// Name returns the node's member name.
func (n *Node) Name() string { return n.cfg.Member }

// ReportWrite records a write of key: the estimator's write signal and
// the sketch's. held reports whether a cache may still hold a copy; it is
// true whenever err is not nil, because a node that did not answer cannot
// tell. A durable node takes its snapshot here when one is due, outside
// every sketch lock.
func (n *Node) ReportWrite(key string) (held bool, err error) {
	if n.down.Load() {
		return true, ErrNodeDown
	}
	n.est.RecordWrite(key)
	held = n.sketch.ReportWrite(key)
	if d := n.cfg.Durable; d != nil && d.ShouldSnapshot() {
		// A failed snapshot is not fatal: the WAL still covers the state,
		// and a crashed store reports through Crashed().
		_ = d.Snapshot()
	}
	return held, nil
}

// RecordRead records a miss read of key: the estimator's read signal,
// which a fill sends and a 304 does not.
func (n *Node) RecordRead(key string) error {
	if n.down.Load() {
		return ErrNodeDown
	}
	n.est.RecordRead(key)
	return nil
}

// ReportFill records that caches hold a copy of key until expiresAt.
func (n *Node) ReportFill(key string, expiresAt time.Time) error {
	if n.down.Load() {
		return ErrNodeDown
	}
	n.sketch.ReportCachedRead(key, expiresAt)
	return nil
}

// TTL returns the estimator's TTL for key. A down node answers 0: a copy
// its sketch could never learn of is not to be kept.
func (n *Node) TTL(key string) time.Duration {
	if n.down.Load() {
		return 0
	}
	return n.est.TTL(key)
}

// Register adds a continuous query to the node's matcher.
func (n *Node) Register(id string, q query.Query) error {
	if n.down.Load() {
		return ErrNodeDown
	}
	n.engine.Register(id, q)
	return nil
}

// Process matches one change event against the node's registrations,
// sorted by registration ID.
func (n *Node) Process(ev storage.ChangeEvent) ([]invalidb.Invalidation, error) {
	if n.down.Load() {
		return nil, ErrNodeDown
	}
	return n.engine.Process(ev), nil
}

// Snapshot returns the client sketch (cachesketch.Server.Snapshot).
func (n *Node) Snapshot() *cachesketch.Snapshot { return n.sketch.Snapshot() }

// Generation returns the sketch's content generation.
func (n *Node) Generation() uint64 { return n.sketch.Generation() }

// Epoch returns the sketch's epoch.
func (n *Node) Epoch() uint64 { return n.sketch.Epoch() }

// EpochValue returns the sketch's epoch header value, formatted once.
func (n *Node) EpochValue() []string { return n.sketch.EpochValue() }

// Lag is how far a node's snapshot trails its writes: not at all.
func (n *Node) Lag() time.Duration { return 0 }

// Contains reports whether the sketch tracks key.
func (n *Node) Contains(key string) bool { return n.sketch.Contains(key) }

// Readout returns the node's sketch counters and size.
func (n *Node) Readout() Readout {
	return Readout{Sketch: n.sketch.Stats(), SketchBytes: n.sketch.SketchBytes()}
}

// Delta publishes the node's current frame: its flattened sketch, content
// generation and epoch. The filter goes out at its full size, not in the
// compacted encoding devices get (Snapshot.Marshal): the merger unions
// frames, and a union needs equal (m, k) on both sides.
func (n *Node) Delta() (DeltaFrame, error) {
	if n.down.Load() {
		return DeltaFrame{}, ErrNodeDown
	}
	snap := n.sketch.Snapshot()
	body, err := snap.Filter.MarshalBinary()
	if err != nil {
		return DeltaFrame{}, err
	}
	return DeltaFrame{
		Node:       n.cfg.Member,
		Generation: snap.Generation,
		Epoch:      snap.Epoch,
		Sketch:     body,
	}, nil
}

// Kill simulates the node's process dying: every call fails with
// ErrNodeDown until Recover, and a durable store closes WITHOUT its
// clean-shutdown marker, so the next recovery distrusts the tail and
// draws a new epoch.
func (n *Node) Kill() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down.Swap(true) || n.cfg.Durable == nil {
		return nil
	}
	return n.cfg.Durable.Kill()
}

// Recover restarts the node in place, down or not. A durable node runs
// the store's crash recovery over the parts it wired (snapshot load, WAL
// replay, a new epoch on an unclean tail); a memory-only node comes back
// empty under a new epoch, the same zero-trusted-history discipline.
func (n *Node) Recover() (durable.RecoveryInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var info durable.RecoveryInfo
	var err error
	if n.cfg.Durable != nil {
		info, err = n.cfg.Durable.Recover(nil, nil)
	} else {
		n.sketch.Reset()
		n.est.Reset()
	}
	n.recovery, n.recoveryErr = info, err
	n.down.Store(false)
	return info, err
}

// Recovery reports the last recovery of a durable node and its error;
// the zero RecoveryInfo with a nil error for a memory-only one.
func (n *Node) Recovery() (durable.RecoveryInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recovery, n.recoveryErr
}

// Close shuts the node down cleanly: a durable store seals its log with
// the clean-shutdown marker, so the next recovery continues the epoch.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down.Store(true)
	if n.cfg.Durable == nil {
		return nil
	}
	return n.cfg.Durable.Close()
}

// Down reports whether the node is killed or closed.
func (n *Node) Down() bool { return n.down.Load() }

// Sketch returns the node's sketch server.
func (n *Node) Sketch() *cachesketch.Server { return n.sketch }

// Engine returns the node's matcher.
func (n *Node) Engine() *invalidb.Engine { return n.engine }

// Estimator returns the node's TTL estimator.
func (n *Node) Estimator() *ttl.Estimator { return n.est }
