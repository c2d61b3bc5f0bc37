package cachesketch

import (
	"testing"
	"time"
)

func TestVersionLogCurrentVersion(t *testing.T) {
	l := NewVersionLog()
	base := time.Unix(0, 0)
	l.RecordWrite("k", 1, base)
	l.RecordWrite("k", 2, base.Add(10*time.Second))
	l.RecordWrite("k", 3, base.Add(20*time.Second))

	cases := []struct {
		at   time.Duration
		want uint64
	}{
		{-time.Second, 0},
		{0, 1},
		{5 * time.Second, 1},
		{10 * time.Second, 2},
		{15 * time.Second, 2},
		{25 * time.Second, 3},
	}
	for _, c := range cases {
		if got := l.CurrentVersion("k", base.Add(c.at)); got != c.want {
			t.Errorf("CurrentVersion(t=%v) = %d, want %d", c.at, got, c.want)
		}
	}
	if l.CurrentVersion("ghost", base) != 0 {
		t.Error("ghost key has version")
	}
}

func TestVersionLogStaleness(t *testing.T) {
	l := NewVersionLog()
	base := time.Unix(0, 0)
	l.RecordWrite("k", 1, base)
	l.RecordWrite("k", 2, base.Add(10*time.Second))

	// Reading v1 at t=15s: superseded at t=10s → 5s stale.
	if s := l.Staleness("k", 1, base.Add(15*time.Second)); s != 5*time.Second {
		t.Fatalf("staleness = %v, want 5s", s)
	}
	// Reading v1 at t=5s: still current → 0.
	if s := l.Staleness("k", 1, base.Add(5*time.Second)); s != 0 {
		t.Fatalf("staleness = %v, want 0", s)
	}
	// Reading v2 (newest) anywhere → 0.
	if s := l.Staleness("k", 2, base.Add(time.Hour)); s != 0 {
		t.Fatalf("staleness of newest = %v", s)
	}
	// Unknown version → 0 (cannot judge).
	if s := l.Staleness("k", 99, base.Add(time.Hour)); s != 0 {
		t.Fatalf("staleness of unknown = %v", s)
	}
	// Unknown key → 0.
	if s := l.Staleness("ghost", 1, base); s != 0 {
		t.Fatalf("staleness of ghost key = %v", s)
	}
}

func TestVersionLogDeltaAtomic(t *testing.T) {
	l := NewVersionLog()
	base := time.Unix(0, 0)
	l.RecordWrite("k", 1, base)
	l.RecordWrite("k", 2, base.Add(10*time.Second))

	read := base.Add(15 * time.Second) // v1 is 5s stale here
	if !l.DeltaAtomic("k", 1, read, 5*time.Second) {
		t.Fatal("5s-stale read should satisfy Δ=5s")
	}
	if l.DeltaAtomic("k", 1, read, 4*time.Second) {
		t.Fatal("5s-stale read must violate Δ=4s")
	}
}

func TestVersionLogKeys(t *testing.T) {
	l := NewVersionLog()
	l.RecordWrite("a", 1, time.Unix(0, 0))
	l.RecordWrite("b", 1, time.Unix(0, 0))
	if l.Keys() != 2 {
		t.Fatalf("keys = %d", l.Keys())
	}
}

// Versions only grow: a stamp at or below the newest is dropped, so a
// repeated stamp cannot make the current version look superseded and a
// late one cannot make a superseded version current.
func TestVersionLogDropsNonIncreasingStamps(t *testing.T) {
	l := NewVersionLog()
	base := time.Unix(0, 0)
	l.RecordWrite("k", 1, base)
	l.RecordWrite("k", 3, base.Add(10*time.Second))
	l.RecordWrite("k", 3, base.Add(20*time.Second)) // the pipeline ran twice
	l.RecordWrite("k", 2, base.Add(30*time.Second)) // a render a write overtook
	if n := l.Stamps("k"); n != 2 {
		t.Fatalf("stamps = %d, want 2", n)
	}
	at := base.Add(time.Hour)
	if v := l.CurrentVersion("k", at); v != 3 {
		t.Fatalf("current version = %d, want 3", v)
	}
	if s := l.Staleness("k", 3, at); s != 0 {
		t.Fatalf("current version judged stale by %v", s)
	}
}
