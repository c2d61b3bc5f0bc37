package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/invalidb"
	"speedkit/internal/query"
	"speedkit/internal/storage"
)

// DeltaSource publishes one member's shard frame. *Node implements it
// in-process; *Peer implements it over /v1/cluster/delta, which is how a
// merge layer pulls frames from nodes in other processes.
type DeltaSource interface {
	Name() string
	Delta() (DeltaFrame, error)
}

// Config parameterizes a Cluster. Its clock and sketch sizing are its
// nodes'.
type Config struct {
	// Seed fixes the consistent-hash ring; every router of a deployment
	// must share it.
	Seed int64
	// Delta is the deployment's staleness bound Δ (default 60s). The
	// exchange period and the frame age the merge tolerates are fixed
	// fractions of it (SyncPeriod, MaxFrameAge), and Lag is their sum.
	Delta time.Duration
	// Faults optionally perturbs the delta-exchange hop (component
	// faults.DeltaExchange: Blackhole partitions a member away from the
	// merge layer for the round, Error drops one pull).
	Faults *faults.Injector
}

// ClusterStats aggregates router activity.
type ClusterStats struct {
	RoutedWrites, RoutedReads, Broadcasts uint64
	// FailedRoutes counts reports refused because the owning node was
	// down.
	FailedRoutes uint64
	// DroppedExchanges counts delta pulls lost to injected faults.
	DroppedExchanges uint64
	Merger           MergerStats
}

// Cluster routes the kernel's calls across the node set and owns the
// merge layer. Resource reports go to the ring owner of their key;
// registrations go to the ring owner of their registration ID; change
// events broadcast to every node. Safe for concurrent use.
//
// A report whose owner is down fails, and its caller learns so. What that
// means depends on who acknowledged the operation first: a write the
// document store has already acknowledged still happened, so ReportWrite
// answers held (the caller purges what it holds), and from then on the
// owner's aged-out frame saturates the merge and its new epoch, once
// recovered, covers every device and edge. A fill the owner never saw is
// kept by nobody: the owner's TTL is 0 while it is down.
type Cluster struct {
	cfg     Config
	clk     clock.Clock
	ring    *Ring
	members []string
	merger  *Merger
	nodes   map[string]*Node // immutable after New

	mu      sync.Mutex
	sources map[string]DeltaSource // guarded by mu; delta fetch per member
	regs    map[string]bool        // guarded by mu; every registration ID routed

	routedWrites, routedReads, broadcasts atomic.Uint64
	failedRoutes, droppedExchanges        atomic.Uint64
}

// New assembles a router over the given nodes, which must share one
// sketch sizing. The ring is derived from the seed and the node names,
// so every router built over the same deployment shards identically.
func New(cfg Config, nodes []*Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: need at least one node")
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 60 * time.Second
	}
	first := nodes[0].cfg
	names := make([]string, 0, len(nodes))
	byName := make(map[string]*Node, len(nodes))
	sources := make(map[string]DeltaSource, len(nodes))
	for _, n := range nodes {
		if n.Name() == "" {
			return nil, errors.New("cluster: node needs a name")
		}
		if _, dup := byName[n.Name()]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name())
		}
		if n.cfg.SketchCapacity != first.SketchCapacity || n.cfg.SketchFPR != first.SketchFPR {
			return nil, fmt.Errorf("cluster: node %q sizes its sketch unlike %q", n.Name(), nodes[0].Name())
		}
		names = append(names, n.Name())
		byName[n.Name()] = n
		sources[n.Name()] = n
	}
	c := &Cluster{
		cfg:  cfg,
		clk:  first.Clock,
		ring: NewRing(cfg.Seed, 0, names),
		merger: NewMerger(MergerConfig{
			Members:           names,
			Capacity:          first.SketchCapacity,
			FalsePositiveRate: first.SketchFPR,
			Clock:             first.Clock,
			MaxFrameAge:       maxFrameAge(cfg.Delta),
		}),
		nodes:   byName,
		sources: sources,
		regs:    make(map[string]bool),
	}
	c.members = c.ring.Members()
	return c, nil
}

// SyncPeriod is how often a deployment runs SyncDeltas: Δ/30, 2 s at the
// default Δ.
func (c *Cluster) SyncPeriod() time.Duration { return c.cfg.Delta / 30 }

// maxFrameAge is how old a held frame may grow before the merge degrades
// to the saturated filter: Δ/12, 5 s at the default Δ, so a member may
// miss a pull or two before its shard is given up.
func maxFrameAge(delta time.Duration) time.Duration { return delta / 12 }

// Lag is how far a merged snapshot may trail a write its owner took: one
// exchange period until the next pull, and a held frame's age. A holder
// that trusts a merged snapshot for Δ − Lag still reads every write
// within Δ.
func (c *Cluster) Lag() time.Duration { return c.SyncPeriod() + maxFrameAge(c.cfg.Delta) }

// Ring returns the routing ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Node returns the named member, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// UseDeltaSource swaps the delta fetcher for one member — the wiring
// point where an in-process handle is replaced by a Peer speaking real
// HTTP to the node's /v1/cluster/delta endpoint.
func (c *Cluster) UseDeltaSource(src DeltaSource) error {
	if c.nodes[src.Name()] == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, src.Name())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sources[src.Name()] = src
	return nil
}

// owner resolves the node owning key.
func (c *Cluster) owner(key string) *Node { return c.nodes[c.ring.Owner(key)] }

// ReportWrite routes one write report to its shard owner. A down owner
// fails the report and answers held, like a node that restarted since the
// merge last folded its frame: its expiration table is not the one the
// copies of the merged epoch were reported to.
func (c *Cluster) ReportWrite(key string) (held bool, err error) {
	n := c.owner(key)
	held, err = n.ReportWrite(key)
	if err != nil {
		c.failedRoutes.Add(1)
		return true, fmt.Errorf("cluster: write shard %s: %w", n.Name(), err)
	}
	c.routedWrites.Add(1)
	if e, ok := c.merger.memberEpoch(n.Name()); !ok || e != n.Epoch() {
		held = true
	}
	return held, nil
}

// RecordRead routes a miss read to its shard owner's estimator.
func (c *Cluster) RecordRead(key string) error { return c.owner(key).RecordRead(key) }

// ReportFill routes a cache-fill report to its shard owner.
func (c *Cluster) ReportFill(key string, expiresAt time.Time) error {
	err := c.owner(key).ReportFill(key, expiresAt)
	if err != nil {
		c.failedRoutes.Add(1)
	} else {
		c.routedReads.Add(1)
	}
	return err
}

// TTL returns the shard owner's TTL for key (0 while it is down).
func (c *Cluster) TTL(key string) time.Duration { return c.owner(key).TTL(key) }

// Contains reports whether the shard owner's sketch tracks key.
func (c *Cluster) Contains(key string) bool {
	n := c.owner(key)
	return !n.Down() && n.Contains(key)
}

// Register routes a continuous-query registration to the ring owner of
// its registration ID — the partitioning dimension that spreads the
// matching work, while events broadcast on the other dimension.
func (c *Cluster) Register(id string, q query.Query) error {
	c.mu.Lock()
	c.regs[id] = true
	c.mu.Unlock()
	return c.owner(id).Register(id, q)
}

// Process broadcasts one change event to every node and unions the
// matches, sorted by registration ID like the single-node engine. A node
// that cannot match (down) is named in the error, and every registration
// it owns is in the result all the same: a match nobody could rule out
// counts as a match, so the listing it guards is invalidated rather than
// left at a version no write moves.
func (c *Cluster) Process(ev storage.ChangeEvent) ([]invalidb.Invalidation, error) {
	c.broadcasts.Add(1)
	var all []invalidb.Invalidation
	var firstErr error
	for _, name := range c.members {
		invs, err := c.nodes[name].Process(ev)
		if err == nil {
			all = append(all, invs...)
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("cluster: matcher %s: %w", name, err)
		}
		now := c.clk.Now()
		c.mu.Lock()
		for id := range c.regs {
			if c.ring.Owner(id) == name {
				all = append(all, invalidb.Invalidation{RegistrationID: id, Kind: invalidb.Changed, Change: ev, DetectedAt: now})
			}
		}
		c.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].RegistrationID < all[j].RegistrationID })
	return all, firstErr
}

// SyncDeltas runs one delta-exchange round: every member's frame is
// pulled from its DeltaSource and folded into the merge layer. Injected
// faults on the faults.DeltaExchange component drop individual pulls —
// the partition failure mode; the member's held frame then ages out and
// the merge degrades to saturated, never to a filter missing that shard's
// writes. Down members simply fail their pull with the same effect.
// Returns the first pull/fold error after completing the round.
func (c *Cluster) SyncDeltas() error {
	c.mu.Lock()
	srcs := make([]DeltaSource, 0, len(c.sources))
	for _, name := range c.members {
		srcs = append(srcs, c.sources[name])
	}
	c.mu.Unlock()

	var firstErr error
	for _, src := range srcs {
		if d := c.cfg.Faults.Decide(faults.DeltaExchange); d.Faulted() {
			c.droppedExchanges.Add(1)
			if firstErr == nil && d.Err != nil {
				firstErr = fmt.Errorf("cluster: exchange with %s: %w", src.Name(), d.Err)
			}
			continue
		}
		frame, err := src.Delta()
		if err == nil {
			err = c.merger.Fold(frame)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: exchange with %s: %w", src.Name(), err)
		}
	}
	return firstErr
}

// Snapshot returns the merged client sketch (see Merger.Snapshot).
func (c *Cluster) Snapshot() *cachesketch.Snapshot { return c.merger.Snapshot() }

// Generation returns the merged generation (see Merger.Generation).
func (c *Cluster) Generation() uint64 { return c.merger.Generation() }

// Epoch returns the merged sketch's epoch.
func (c *Cluster) Epoch() uint64 { return c.merger.epoch.Load().id }

// EpochValue returns the merged epoch's header value, formatted once.
func (c *Cluster) EpochValue() []string { return c.merger.epoch.Load().wire }

// Readout returns the members, the live nodes' summed sketch counters and
// the merged sketch's size.
func (c *Cluster) Readout() Readout {
	r := Readout{Members: c.ring.Members()}
	for _, name := range c.members {
		n := c.nodes[name]
		if n.Down() {
			continue
		}
		st := n.sketch.Stats()
		r.Sketch.Adds += st.Adds
		r.Sketch.Removes += st.Removes
		r.Sketch.Extends += st.Extends
		r.Sketch.WritesUncached += st.WritesUncached
		r.Sketch.Snapshots += st.Snapshots
		r.Sketch.Flattens += st.Flattens
		r.Sketch.Tracked += st.Tracked
		r.Sketch.TableSize += st.TableSize
	}
	if data, err := c.merger.Snapshot().Marshal(); err == nil {
		r.SketchBytes = len(data)
	}
	return r
}

// Export returns the deterministic merged-sketch export (see
// Merger.Export).
func (c *Cluster) Export() ([]byte, error) { return c.merger.Export() }

// Close closes every node cleanly.
func (c *Cluster) Close() error {
	var firstErr error
	for _, name := range c.members {
		if err := c.nodes[name].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats returns a copy of the router counters (merge stats included).
func (c *Cluster) Stats() ClusterStats {
	return ClusterStats{
		RoutedWrites:     c.routedWrites.Load(),
		RoutedReads:      c.routedReads.Load(),
		Broadcasts:       c.broadcasts.Load(),
		FailedRoutes:     c.failedRoutes.Load(),
		DroppedExchanges: c.droppedExchanges.Load(),
		Merger:           c.merger.Stats(),
	}
}
