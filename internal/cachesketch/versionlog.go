package cachesketch

import (
	"sort"
	"sync"
	"time"
)

// VersionLog records when each version of each resource became current.
// It is the measurement instrument behind the consistency experiments: a
// read that returned version v at time t is Δ-atomic iff v was the
// current version at some instant in [t−Δ, t]; its staleness is how long
// before t the version was superseded (zero if it was still current
// within the window's end).
// Judging a read needs history no older than the measurement horizon (the
// largest Δ or TTL under study), so stamps past the horizon are pruned on
// write instead of accumulating for the life of the process.
type VersionLog struct {
	mu       sync.RWMutex
	versions map[string][]versionStamp // guarded by mu
	horizon  time.Duration             // guarded by mu; 0 = keep everything
}

type versionStamp struct {
	version   uint64
	writtenAt time.Time
}

// NewVersionLog creates an empty log.
func NewVersionLog() *VersionLog {
	return &VersionLog{versions: make(map[string][]versionStamp)}
}

// SetHorizon bounds per-key history: stamps written more than h before
// the newest write are pruned, except the one straddling the boundary
// (the version current AT the horizon edge must stay resolvable, or
// CurrentVersion/Staleness would misjudge reads just inside it). Zero
// disables pruning. Judgements about reads older than the horizon are
// forfeited — they may return 0 ("cannot judge") where full history
// would have measured staleness.
func (l *VersionLog) SetHorizon(h time.Duration) {
	l.mu.Lock()
	if h >= 0 {
		l.horizon = h
	}
	l.mu.Unlock()
}

// RecordWrite notes that the resource's current version became v at time
// t. Versions only grow: a stamp at or below the newest recorded version
// is dropped, so neither a render that a write overtook nor a pipeline
// that runs twice for one version can make a superseded version current
// again, or a current version look superseded by itself.
func (l *VersionLog) RecordWrite(key string, v uint64, t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	vs := l.versions[key]
	if n := len(vs); n > 0 && v <= vs[n-1].version {
		return
	}
	vs = append(vs, versionStamp{version: v, writtenAt: t})
	if l.horizon > 0 {
		// Drop stamps wholly before the horizon, keeping the last stamp at
		// or before the boundary: it is the version current at the edge.
		edge := t.Add(-l.horizon)
		cut := 0
		for cut < len(vs)-1 && !vs[cut+1].writtenAt.After(edge) {
			cut++
		}
		if cut > 0 {
			vs = vs[cut:]
		}
	}
	l.versions[key] = vs
}

// CurrentVersion returns the version current at time t (0 if the key has
// no version written at or before t).
func (l *VersionLog) CurrentVersion(key string, t time.Time) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	vs := l.versions[key]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].writtenAt.After(t) })
	if i == 0 {
		return 0
	}
	return vs[i-1].version
}

// Staleness returns how stale a read of (key, servedVersion) at readTime
// was: zero if the served version was still current at readTime, else the
// duration between the superseding write and the read. Reads of versions
// never recorded return zero (the log cannot judge them).
func (l *VersionLog) Staleness(key string, servedVersion uint64, readTime time.Time) time.Duration {
	l.mu.RLock()
	defer l.mu.RUnlock()
	vs := l.versions[key]
	// Find the served version's successor.
	idx := -1
	for i, s := range vs {
		if s.version == servedVersion {
			idx = i
			break
		}
	}
	if idx == -1 || idx+1 >= len(vs) {
		return 0 // unknown or still the newest version
	}
	supersededAt := vs[idx+1].writtenAt
	if supersededAt.After(readTime) {
		return 0 // superseded only after the read
	}
	return readTime.Sub(supersededAt)
}

// DeltaAtomic reports whether a read of (key, servedVersion) at readTime
// satisfies Δ-atomicity for the given delta.
func (l *VersionLog) DeltaAtomic(key string, servedVersion uint64, readTime time.Time, delta time.Duration) bool {
	return l.Staleness(key, servedVersion, readTime) <= delta
}

// Keys returns the number of tracked keys.
func (l *VersionLog) Keys() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.versions)
}

// Stamps returns how many version stamps are retained for key — the
// pruning tests' observability hook.
func (l *VersionLog) Stamps(key string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.versions[key])
}
