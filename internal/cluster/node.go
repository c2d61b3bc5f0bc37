package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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

// NodeConfig parameterizes one cluster node.
type NodeConfig struct {
	// Member is the node's member name on the ring.
	Member string
	// Clock supplies time for the sketch, estimator, matcher, and WAL
	// (default system clock). A deployment's nodes share one clock source.
	Clock clock.Clock
	// SketchCapacity / SketchFPR size the node's shard sketch. Every node
	// of a cluster MUST use identical values — the merge layer rejects
	// frames whose Bloom parameters disagree.
	SketchCapacity uint64
	SketchFPR      float64
	// DurableDir, when non-empty, gives the node its own WAL + snapshot
	// directory; a kill then recovers from disk, under a new epoch unless
	// the log proves nothing was lost. Empty runs the node memory-only.
	DurableDir string
	// SnapshotEvery passes through to the node's durable.Config.
	SnapshotEvery int
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

// NodeStats counts one node's activity.
type NodeStats struct {
	Writes, CachedReads, Events uint64
	Sketch                      cachesketch.ServerStats
	Matcher                     invalidb.Stats
	Recoveries                  uint64
	Down                        bool
}

// Node is one cluster member: a shard-local Cache Sketch server, InvaliDB
// matcher, TTL estimator, and (optionally) a durable WAL. Safe for
// concurrent use.
//
// Registrations routed to the node are remembered in regs so Recover can
// re-register them into the rebuilt matcher: continuous-query
// registrations are soft state owned by the routing layer (clients
// re-subscribe on reconnect in the production system), not WAL state.
type Node struct {
	cfg NodeConfig

	mu     sync.Mutex
	sketch *cachesketch.Server    // guarded by mu; swapped by Recover
	est    *ttl.Estimator         // guarded by mu; swapped by Recover
	engine *invalidb.Engine       // guarded by mu; swapped by Recover
	store  *durable.Store         // guarded by mu; nil when memory-only
	regs   map[string]query.Query // guarded by mu
	down   bool                   // guarded by mu
	stats  NodeStats              // guarded by mu
}

// NewNode creates (and, when durable, recovers) a node. A node over a
// directory with prior state comes back in its old epoch or a new one
// exactly as a restarted single-process server would.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Member == "" {
		return nil, errors.New("cluster: node needs a name")
	}
	n := &Node{cfg: cfg, regs: make(map[string]query.Query)}
	if err := n.openLocked(); err != nil {
		return nil, err
	}
	return n, nil
}

// openLocked builds fresh protocol state and, when durable, recovers it
// from disk. Callers either own n exclusively (NewNode) or hold n.mu.
func (n *Node) openLocked() error {
	var journal cachesketch.Journal
	var store *durable.Store
	if n.cfg.DurableDir != "" {
		store = durable.New(durable.Config{
			Dir:           n.cfg.DurableDir,
			Clock:         n.cfg.Clock,
			SnapshotEvery: n.cfg.SnapshotEvery,
		})
		journal = store
	}
	sketch := cachesketch.NewServer(cachesketch.ServerConfig{
		Capacity:          n.cfg.SketchCapacity,
		FalsePositiveRate: n.cfg.SketchFPR,
		Clock:             n.cfg.Clock,
		Journal:           journal,
	})
	est := ttl.NewEstimator(ttl.Config{Clock: n.cfg.Clock})
	if store != nil {
		if _, err := store.Recover(sketch, est); err != nil {
			return fmt.Errorf("cluster: node %s recovery: %w", n.cfg.Member, err)
		}
	}
	engine := invalidb.New(invalidb.Config{Clock: n.cfg.Clock})
	ids := make([]string, 0, len(n.regs))
	for id := range n.regs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		engine.Register(id, n.regs[id])
	}
	n.sketch, n.est, n.engine, n.store = sketch, est, engine, store
	n.down = false
	return nil
}

// Name returns the node's member name.
func (n *Node) Name() string { return n.cfg.Member }

// parts returns the live protocol components, or ErrNodeDown.
func (n *Node) parts() (*cachesketch.Server, *ttl.Estimator, *invalidb.Engine, *durable.Store, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, nil, nil, nil, ErrNodeDown
	}
	return n.sketch, n.est, n.engine, n.store, nil
}

// ReportWrites records a batch of writes against this node's shard:
// sketch residency, TTL estimator write signal, and WAL journaling all
// happen node-locally. Returns ErrNodeDown without side effects on a
// killed node.
func (n *Node) ReportWrites(keys []string) error {
	sketch, est, _, store, err := n.parts()
	if err != nil {
		return err
	}
	sketch.ReportWrites(keys)
	for _, key := range keys {
		est.RecordWrite(key)
	}
	n.mu.Lock()
	n.stats.Writes += uint64(len(keys))
	n.mu.Unlock()
	n.maybeSnapshot(store)
	return nil
}

// ReportCachedRead records that a cache somewhere holds a copy of key
// expiring at expiresAt, plus the estimator's read signal.
func (n *Node) ReportCachedRead(key string, expiresAt time.Time) error {
	sketch, est, _, store, err := n.parts()
	if err != nil {
		return err
	}
	sketch.ReportCachedRead(key, expiresAt)
	est.RecordRead(key)
	n.mu.Lock()
	n.stats.CachedReads++
	n.mu.Unlock()
	n.maybeSnapshot(store)
	return nil
}

// TTL returns the node's adaptive TTL estimate for key.
func (n *Node) TTL(key string) (time.Duration, error) {
	_, est, _, _, err := n.parts()
	if err != nil {
		return 0, err
	}
	return est.TTL(key), nil
}

// Register adds a continuous query to this node's matcher shard.
func (n *Node) Register(id string, q query.Query) error {
	_, _, engine, _, err := n.parts()
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.regs[id] = q
	n.mu.Unlock()
	engine.Register(id, q)
	return nil
}

// Unregister removes a registration, reporting whether it existed.
func (n *Node) Unregister(id string) (bool, error) {
	_, _, engine, _, err := n.parts()
	if err != nil {
		return false, err
	}
	n.mu.Lock()
	_, had := n.regs[id]
	delete(n.regs, id)
	n.mu.Unlock()
	return engine.Unregister(id) || had, nil
}

// ProcessEvent matches one change event against this node's registration
// shard — its slice of InvaliDB's two-dimensional partitioning. The
// router broadcasts every event to every node and unions the matches.
func (n *Node) ProcessEvent(ev storage.ChangeEvent) ([]invalidb.Invalidation, error) {
	_, _, engine, _, err := n.parts()
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.stats.Events++
	n.mu.Unlock()
	return engine.Process(ev), nil
}

// Delta publishes the node's current shard frame: its flattened sketch,
// content generation and epoch. The filter goes out at its full size, not
// in the compacted encoding devices get (Snapshot.Marshal): the merger
// unions frames, and a union needs equal (m, k) on both sides.
func (n *Node) Delta() (DeltaFrame, error) {
	sketch, _, _, _, err := n.parts()
	if err != nil {
		return DeltaFrame{}, err
	}
	snap := sketch.Snapshot()
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

// maybeSnapshot takes a durable snapshot when the journal suggests one.
// Runs outside the sketch mutex, as the durable contract requires.
func (n *Node) maybeSnapshot(store *durable.Store) {
	if store != nil && store.ShouldSnapshot() {
		// A failed snapshot is not fatal: the WAL still covers the state,
		// and a crashed store reports through Crashed().
		_ = store.Snapshot()
	}
}

// Kill simulates the node's process dying: the WAL closes WITHOUT the
// clean-shutdown marker (so the next recovery distrusts the tail and
// draws a new epoch) and every subsequent operation fails with
// ErrNodeDown until Recover.
func (n *Node) Kill() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	n.down = true
	n.stats.Down = true
	if n.store != nil {
		return n.store.Kill()
	}
	return nil
}

// Recover restarts a killed node. With a durable dir this is the full
// crash-recovery path — snapshot load, WAL replay, a new epoch on the
// unclean tail — over fresh in-memory state; memory-only nodes come back
// empty under a new epoch, the same zero-trusted-history discipline.
// Registrations are re-registered into the rebuilt matcher.
func (n *Node) Recover() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.down {
		return nil
	}
	if err := n.openLocked(); err != nil {
		return err
	}
	n.stats.Recoveries++
	n.stats.Down = false
	return nil
}

// Close shuts the node down cleanly (clean-shutdown marker, warm next
// recovery).
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = true
	n.stats.Down = true
	if n.store != nil {
		store := n.store
		n.store = nil
		return store.Close()
	}
	return nil
}

// Generation returns the node's shard sketch generation.
func (n *Node) Generation() (uint64, error) {
	sketch, _, _, _, err := n.parts()
	if err != nil {
		return 0, err
	}
	return sketch.Generation(), nil
}

// Stats returns a copy of the node's counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	sketch, engine := n.sketch, n.engine
	st := n.stats
	n.mu.Unlock()
	if !st.Down {
		st.Sketch = sketch.Stats()
		st.Matcher = engine.Stats()
	}
	return st
}
