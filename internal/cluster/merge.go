package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
)

// ErrUnknownMember is returned by Fold for a frame from a node outside
// the merger's member set — a misrouted or stale-deployment frame that
// must not contribute bits to the merged sketch.
var ErrUnknownMember = errors.New("cluster: delta frame from unknown member")

// MergerConfig parameterizes the merge layer.
type MergerConfig struct {
	// Members is the full node set whose frames make a complete merge.
	Members []string
	// Capacity and FalsePositiveRate must match every node's sketch
	// sizing; they fix the (m, k) parameters incoming frames are
	// validated against.
	Capacity          uint64
	FalsePositiveRate float64
	// Clock stamps folds and ages frames (default system clock).
	Clock clock.Clock
	// MaxFrameAge bounds how stale a held frame may be before the merge
	// degrades to the saturated filter. Zero means frames never age out —
	// only a missing member degrades the merge. Deployments set it below
	// their Δ sync budget so a partitioned node forces conservative
	// serving instead of silently masking its shard's writes.
	MaxFrameAge time.Duration
}

func (c *MergerConfig) applyDefaults() {
	if c.Capacity == 0 {
		c.Capacity = 10000
	}
	if c.FalsePositiveRate <= 0 || c.FalsePositiveRate >= 1 {
		c.FalsePositiveRate = 0.05
	}
	if c.Clock == nil {
		c.Clock = clock.System
	}
}

// heldFrame is the newest folded frame for one member.
type heldFrame struct {
	gen      uint64
	epoch    uint64
	filter   *bloom.Filter
	foldedAt time.Time
}

// MergerStats counts merge-layer activity.
type MergerStats struct {
	// Folds counts accepted frames; StaleFolds counts frames ignored for
	// carrying a generation older than the held one of the same epoch.
	// EpochChanges counts frames that replaced a member's frame of another
	// epoch, each of which moved the merged sketch to a new epoch.
	Folds, StaleFolds, EpochChanges uint64
	// Rejected counts frames refused outright (unknown member, parameter
	// mismatch, undecodable sketch).
	Rejected uint64
	// MergedServes and SaturatedServes split Snapshot calls by outcome.
	MergedServes, SaturatedServes uint64
}

// Merger folds per-node DeltaFrames into the single client-facing Bloom
// filter. Safe for concurrent use.
//
// The generation-merge rule: the merged generation is Σ(folded shard
// generations) + the saturation-transition counter. Each shard's folded
// generation is monotone (Fold ignores older frames), so the sum is
// monotone, and — because per-node generations advance exactly when that
// shard's contents change — two merged snapshots with equal generations
// hold identical filters, preserving the single-node snapshot contract.
// The merged (non-saturated) filter is served only while every member's
// frame is folded and fresh; any gap (a member never synced, a partition
// aged its frame out, a killed node) degrades to the saturated all-stale
// filter, and each degrade/recover transition bumps the counter so the
// generation watermark still advances strictly. Clients therefore never
// install a merged sketch that is missing a shard's writes: the filter
// can only err toward spurious revalidations, exactly like a single
// node's Bloom false positives, and Client.Check semantics carry over
// unchanged.
//
// The rule holds within one merged epoch. A member whose epoch changes
// restarted without its history, so its new frame replaces the held one
// whatever the two generations, and the Σ may fall: the merged sketch then
// moves to a new epoch of its own, which every holder installs and
// answers with one revalidation pass.
type Merger struct {
	cfg  MergerConfig
	m, k uint32
	// saturated is the immutable all-stale filter served while degraded.
	saturated *bloom.Filter

	// epoch is the merged sketch's epoch with its header value, formatted
	// once per epoch: written under mu, read without it.
	epoch atomic.Pointer[mergedEpoch]

	mu         sync.Mutex
	frames     map[string]heldFrame // guarded by mu
	satBumps   uint64               // guarded by mu; transition counter folded into the generation
	servingSat bool                 // guarded by mu; current serve state (starts saturated)
	stats      MergerStats          // guarded by mu
}

// mergedEpoch names one merged epoch.
type mergedEpoch struct {
	id   uint64
	wire []string
}

// newEpoch moves the merged sketch to a newly drawn epoch.
func (mg *Merger) newEpoch() {
	e := cachesketch.NewEpoch()
	mg.epoch.Store(&mergedEpoch{id: e, wire: cachesketch.EpochValue(e)})
}

// NewMerger creates a merge layer over the given member set.
func NewMerger(cfg MergerConfig) *Merger {
	cfg.applyDefaults()
	// The sizing cachesketch.NewServer uses: a frame sized any other way
	// is a parameter mismatch.
	m, k := bloom.CompactableParams(cfg.Capacity, cfg.FalsePositiveRate)
	sat := bloom.NewFilter(m, k)
	sat.Saturate()
	mg := &Merger{
		cfg:       cfg,
		saturated: sat,
		frames:    make(map[string]heldFrame, len(cfg.Members)),
		// Before the first complete exchange the merger has zero trusted
		// history, so it starts in the saturated state.
		servingSat: true,
	}
	mg.m = sat.Bits()
	mg.k = sat.Hashes()
	mg.newEpoch()
	return mg
}

// Params returns the (m, k) filter parameters frames must carry.
func (mg *Merger) Params() (m, k uint32) { return mg.m, mg.k }

// Fold ingests one member's frame. Frames from unknown members are
// rejected with ErrUnknownMember; frames whose filter parameters disagree
// with the cluster sizing are rejected with an error wrapping
// bloom.ErrParamMismatch; a frame older than the held one of its epoch is
// ignored (nil error) — exchange rounds may arrive reordered. A frame of
// another epoch than the member's held one replaces it, never unioned with
// it or compared by generation, and moves the merged sketch to a new
// epoch.
func (mg *Merger) Fold(frame DeltaFrame) error {
	known := false
	for _, m := range mg.cfg.Members {
		if m == frame.Node {
			known = true
			break
		}
	}
	var f bloom.Filter
	decodeErr := f.UnmarshalBinary(frame.Sketch)

	mg.mu.Lock()
	defer mg.mu.Unlock()
	if !known {
		mg.stats.Rejected++
		return fmt.Errorf("%w: %q", ErrUnknownMember, frame.Node)
	}
	if decodeErr != nil {
		mg.stats.Rejected++
		return fmt.Errorf("cluster: frame from %q: %w", frame.Node, decodeErr)
	}
	if f.Bits() != mg.m || f.Hashes() != mg.k {
		mg.stats.Rejected++
		return fmt.Errorf("cluster: frame from %q: %w (m=%d,k=%d vs cluster m=%d,k=%d)",
			frame.Node, bloom.ErrParamMismatch, f.Bits(), f.Hashes(), mg.m, mg.k)
	}
	if held, ok := mg.frames[frame.Node]; ok {
		switch {
		case frame.Epoch != held.epoch:
			mg.newEpoch()
			mg.stats.EpochChanges++
		case frame.Generation < held.gen:
			mg.stats.StaleFolds++
			return nil
		}
	}
	mg.frames[frame.Node] = heldFrame{
		gen:      frame.Generation,
		epoch:    frame.Epoch,
		filter:   &f,
		foldedAt: mg.cfg.Clock.Now(),
	}
	mg.stats.Folds++
	return nil
}

// completeLocked reports whether every member's frame is folded and
// fresh. Caller holds mg.mu.
func (mg *Merger) completeLocked(now time.Time) bool {
	for _, m := range mg.cfg.Members {
		held, ok := mg.frames[m]
		if !ok {
			return false
		}
		if mg.cfg.MaxFrameAge > 0 && now.Sub(held.foldedAt) > mg.cfg.MaxFrameAge {
			return false
		}
	}
	return true
}

// Snapshot returns the cluster-wide client sketch under the
// generation-merge rule. It is shaped exactly like a single node's
// cachesketch.Snapshot, so clients install it unchanged.
func (mg *Merger) Snapshot() *cachesketch.Snapshot {
	now := mg.cfg.Clock.Now()
	mg.mu.Lock()
	defer mg.mu.Unlock()

	complete := mg.completeLocked(now)
	if complete == mg.servingSat {
		// Serve state flips (degraded -> merged or merged -> degraded):
		// bump the transition counter so the generation strictly advances
		// even when Σ(shard generations) is unchanged, keeping "equal
		// generation ⇒ interchangeable snapshot" true across the flip.
		mg.satBumps++
		mg.servingSat = !complete
	}
	gen := mg.generationLocked()
	epoch := mg.epoch.Load().id
	if !complete {
		mg.stats.SaturatedServes++
		return &cachesketch.Snapshot{Filter: mg.saturated, Generation: gen, Epoch: epoch, TakenAt: now}
	}
	merged := bloom.NewFilter(mg.m, mg.k)
	for _, m := range mg.cfg.Members {
		if err := merged.Merge(mg.frames[m].filter); err != nil {
			// Unreachable — Fold validated parameters — but if it ever
			// fires, degrade conservatively rather than serve a partial
			// union missing a shard's bits.
			mg.stats.SaturatedServes++
			mg.satBumps++
			mg.servingSat = true
			return &cachesketch.Snapshot{Filter: mg.saturated, Generation: gen + 1, Epoch: epoch, TakenAt: now}
		}
	}
	mg.stats.MergedServes++
	return &cachesketch.Snapshot{Filter: merged, Generation: gen, Epoch: epoch, TakenAt: now}
}

// generationLocked is Σ(folded shard generations) + the transition
// counter. Caller holds mg.mu.
func (mg *Merger) generationLocked() uint64 {
	gen := mg.satBumps
	for _, m := range mg.cfg.Members {
		gen += mg.frames[m].gen
	}
	return gen
}

// Generation returns the merged generation as of the last Snapshot's
// serve state: a flip the next Snapshot makes is not counted yet.
func (mg *Merger) Generation() uint64 {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.generationLocked()
}

// memberEpoch returns the epoch of the frame held for member, if any.
func (mg *Merger) memberEpoch(member string) (uint64, bool) {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	held, ok := mg.frames[member]
	return held.epoch, ok
}

// Export serializes the merged sketch deterministically: magic, the
// merged generation, then the filter bytes. Twin seeded runs must produce
// byte-identical exports — the cluster gate's determinism check.
func (mg *Merger) Export() ([]byte, error) {
	snap := mg.Snapshot()
	body, err := snap.Marshal()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 12+len(body))
	out = append(out, 'S', 'K', 'C', 'M')
	out = binary.BigEndian.AppendUint64(out, snap.Generation)
	out = append(out, body...)
	return out, nil
}

// Stats returns a copy of the merge counters.
func (mg *Merger) Stats() MergerStats {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.stats
}
