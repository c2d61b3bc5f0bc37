package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// frameFor builds a valid DeltaFrame for member at gen containing keys.
func frameFor(t *testing.T, mg *Merger, member string, gen uint64, keys ...string) DeltaFrame {
	t.Helper()
	m, k := mg.Params()
	f := bloom.NewFilter(m, k)
	for _, key := range keys {
		f.Add(key)
	}
	body, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return DeltaFrame{Node: member, Generation: gen, Sketch: body}
}

func newTestMerger(clk clock.Clock, members ...string) *Merger {
	return NewMerger(MergerConfig{
		Members:  members,
		Capacity: 512,
		Clock:    clk,
	})
}

// TestMergerServesSaturatedUntilComplete: before every member's frame is
// folded, the merged sketch must be the all-stale filter — a client may
// never install a merge missing a shard's writes.
func TestMergerServesSaturatedUntilComplete(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mg := newTestMerger(clk, "a", "b")

	snap := mg.Snapshot()
	if !snap.MightBeStale("anything") {
		t.Fatal("incomplete merge served a non-saturated sketch")
	}

	if err := mg.Fold(frameFor(t, mg, "a", 1, "k1")); err != nil {
		t.Fatalf("fold a: %v", err)
	}
	snap = mg.Snapshot()
	if !snap.MightBeStale("never-written") {
		t.Fatal("merge with member b missing served a non-saturated sketch")
	}

	if err := mg.Fold(frameFor(t, mg, "b", 2, "k2")); err != nil {
		t.Fatalf("fold b: %v", err)
	}
	snap = mg.Snapshot()
	if !snap.MightBeStale("k1") || !snap.MightBeStale("k2") {
		t.Fatal("merged sketch lost a shard's keys")
	}
	if snap.MightBeStale("never-written") {
		t.Fatal("complete merge still saturated")
	}
}

// TestMergerGenerationMonotone drives the merger through fold, degrade,
// and recover cycles and asserts the merged generation never regresses —
// the invariant Client.Install relies on.
func TestMergerGenerationMonotone(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mg := NewMerger(MergerConfig{
		Members:     []string{"a", "b"},
		Capacity:    512,
		Clock:       clk,
		MaxFrameAge: time.Minute,
	})
	last := uint64(0)
	check := func(stage string) {
		t.Helper()
		snap := mg.Snapshot()
		if snap.Generation < last {
			t.Fatalf("%s: generation regressed %d -> %d", stage, last, snap.Generation)
		}
		last = snap.Generation
	}
	check("initial saturated")
	_ = mg.Fold(frameFor(t, mg, "a", 3, "k1"))
	check("half folded")
	_ = mg.Fold(frameFor(t, mg, "b", 5, "k2"))
	check("complete")            // transition saturated -> merged bumps
	clk.Advance(2 * time.Minute) // both frames age out
	check("aged out")            // transition merged -> saturated bumps
	_ = mg.Fold(frameFor(t, mg, "a", 3, "k1"))
	_ = mg.Fold(frameFor(t, mg, "b", 5, "k2"))
	check("refolded same generations") // must still advance past the saturated serve
	_ = mg.Fold(frameFor(t, mg, "b", 9, "k2", "k3"))
	check("b advanced")
}

// TestMergerEqualGenerationMeansEqualFilter: two merged snapshots with
// the same generation must hold identical filters (the single-node
// snapshot contract, preserved by the Σ-of-monotone-terms rule).
func TestMergerEqualGenerationMeansEqualFilter(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mg := newTestMerger(clk, "a", "b")
	_ = mg.Fold(frameFor(t, mg, "a", 1, "k1"))
	_ = mg.Fold(frameFor(t, mg, "b", 1, "k2"))
	s1 := mg.Snapshot()
	// Refold identical frames; generation and contents must not move.
	_ = mg.Fold(frameFor(t, mg, "a", 1, "k1"))
	s2 := mg.Snapshot()
	if s1.Generation != s2.Generation {
		t.Fatalf("idempotent refold moved generation %d -> %d", s1.Generation, s2.Generation)
	}
	b1, _ := s1.Marshal()
	b2, _ := s2.Marshal()
	if !bytes.Equal(b1, b2) {
		t.Fatal("equal generations with different filters")
	}
}

// TestMergerStaleFrameIgnored: an older generation must not overwrite a
// newer held frame (exchange rounds can arrive reordered).
func TestMergerStaleFrameIgnored(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mg := newTestMerger(clk, "a")
	_ = mg.Fold(frameFor(t, mg, "a", 5, "new-key"))
	if err := mg.Fold(frameFor(t, mg, "a", 3, "old-only")); err != nil {
		t.Fatalf("stale fold errored: %v", err)
	}
	snap := mg.Snapshot()
	if !snap.MightBeStale("new-key") {
		t.Fatal("stale frame overwrote the newer one")
	}
	if mg.Stats().StaleFolds != 1 {
		t.Fatalf("StaleFolds = %d, want 1", mg.Stats().StaleFolds)
	}
}

// TestMergerRejectsBadFrames tables the rejection paths: unknown member,
// mismatched Bloom parameters (typed error), undecodable sketch.
func TestMergerRejectsBadFrames(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mg := newTestMerger(clk, "a")

	t.Run("unknown member", func(t *testing.T) {
		err := mg.Fold(frameFor(t, mg, "stranger", 1, "k"))
		if !errors.Is(err, ErrUnknownMember) {
			t.Fatalf("err = %v, want ErrUnknownMember", err)
		}
	})
	t.Run("param mismatch", func(t *testing.T) {
		wrong := bloom.NewFilter(64, 1)
		wrong.Add("k")
		body, _ := wrong.MarshalBinary()
		err := mg.Fold(DeltaFrame{Node: "a", Generation: 1, Sketch: body})
		if !errors.Is(err, bloom.ErrParamMismatch) {
			t.Fatalf("err = %v, want bloom.ErrParamMismatch", err)
		}
	})
	t.Run("garbage sketch", func(t *testing.T) {
		err := mg.Fold(DeltaFrame{Node: "a", Generation: 1, Sketch: []byte("nonsense")})
		if err == nil {
			t.Fatal("garbage sketch folded without error")
		}
	})
	if got := mg.Stats().Rejected; got != 3 {
		t.Fatalf("Rejected = %d, want 3", got)
	}
	// None of the rejects count as folds; the merge must still be degraded.
	if !mg.Snapshot().MightBeStale("x") {
		t.Fatal("rejected frames were folded")
	}
}

// TestMergerFrameAging: a partitioned member's aging frame degrades the
// merge back to saturated within MaxFrameAge.
func TestMergerFrameAging(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mg := NewMerger(MergerConfig{
		Members:     []string{"a", "b"},
		Capacity:    512,
		Clock:       clk,
		MaxFrameAge: 30 * time.Second,
	})
	_ = mg.Fold(frameFor(t, mg, "a", 1, "k1"))
	_ = mg.Fold(frameFor(t, mg, "b", 1, "k2"))
	if mg.Snapshot().MightBeStale("fresh-unwritten") {
		t.Fatal("complete fresh merge saturated")
	}
	clk.Advance(31 * time.Second)
	// b re-syncs, a stays partitioned: its frame is now too old.
	_ = mg.Fold(frameFor(t, mg, "b", 1, "k2"))
	if !mg.Snapshot().MightBeStale("fresh-unwritten") {
		t.Fatal("aged-out frame did not degrade the merge")
	}
}

// TestMergerExportDeterministic: two mergers driven through the same fold
// sequence export byte-identical merged sketches — the twin-run check the
// cluster gate builds on.
func TestMergerExportDeterministic(t *testing.T) {
	run := func() []byte {
		clk := clock.NewSimulated(epoch)
		mg := newTestMerger(clk, "a", "b", "c")
		_ = mg.Fold(frameFor(t, mg, "a", 2, "k1", "k2"))
		_ = mg.Fold(frameFor(t, mg, "b", 7, "k3"))
		_ = mg.Fold(frameFor(t, mg, "c", 1))
		out, err := mg.Export()
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("twin fold sequences exported different bytes")
	}
}

// TestMergerSnapshotInstallsIntoClient closes the loop with the protocol
// client: merged snapshots must install and answer Check like single-node
// ones, including across a degrade (generation keeps advancing).
func TestMergerSnapshotInstallsIntoClient(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mg := NewMerger(MergerConfig{
		Members:     []string{"a", "b"},
		Capacity:    512,
		Clock:       clk,
		MaxFrameAge: time.Minute,
	})
	client := cachesketch.NewClient(clk, time.Minute)
	client.Install(mg.Snapshot())
	if d := client.Check("k1"); d != cachesketch.Revalidate {
		t.Fatalf("saturated install: Check(k1) = %v, want Revalidate", d)
	}
	_ = mg.Fold(frameFor(t, mg, "a", 1, "k1"))
	_ = mg.Fold(frameFor(t, mg, "b", 1))
	client.Install(mg.Snapshot())
	if d := client.Check("k1"); d != cachesketch.Revalidate {
		t.Fatalf("merged sketch lost k1: Check = %v", d)
	}
	if d := client.Check("unwritten"); d != cachesketch.ServeFromCache {
		t.Fatalf("merged sketch still flags unwritten keys: Check = %v", d)
	}
}

// TestMergerEpochChangeReplacesTheFrame: a member that restarted without
// its history comes back under another epoch, counting from a lower
// generation. Its frame replaces the held one — the dead incarnation's
// bits are never unioned in, and the two generations are never compared —
// and the merged sketch moves to a new epoch, so a client installs it
// although the merged generation fell. Within the new epoch the usual
// order resumes.
func TestMergerEpochChangeReplacesTheFrame(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mg := newTestMerger(clk, "a", "b")
	fold := func(member string, ep, gen uint64, keys ...string) {
		t.Helper()
		f := frameFor(t, mg, member, gen, keys...)
		f.Epoch = ep
		if err := mg.Fold(f); err != nil {
			t.Fatalf("fold %s: %v", member, err)
		}
	}
	fold("a", 1, 40, "dead-only")
	fold("b", 7, 3, "k2")
	before := mg.Snapshot()
	client := cachesketch.NewClient(clk, time.Minute)
	client.Install(before)
	if !before.MightBeStale("dead-only") {
		t.Fatal("merged sketch lost member a's key")
	}

	clk.Advance(time.Second)
	fold("a", 2, 1, "reborn")
	after := mg.Snapshot()
	if after.Epoch == before.Epoch || after.Generation >= before.Generation {
		t.Fatalf("after a's restart: epoch %x generation %d; before: %x, %d — want a new epoch, the Σ fallen",
			after.Epoch, after.Generation, before.Epoch, before.Generation)
	}
	if after.MightBeStale("dead-only") {
		t.Fatal("the dead incarnation's frame was unioned with the new one")
	}
	if !after.MightBeStale("reborn") || !after.MightBeStale("k2") {
		t.Fatal("merged sketch lost a live frame's key")
	}
	client.Install(after)
	if client.Generation() != after.Generation || !client.EpochSince().Equal(clk.Now()) {
		t.Fatalf("client holds generation %d (mark %v); want the merge's %d, marked now", client.Generation(), client.EpochSince(), after.Generation)
	}

	fold("a", 2, 0, "older")
	if again := mg.Snapshot(); again.Epoch != after.Epoch || again.MightBeStale("older") {
		t.Fatal("an older frame of the member's new epoch was folded")
	}
	if st := mg.Stats(); st.EpochChanges != 1 || st.StaleFolds != 1 {
		t.Fatalf("stats %+v, want one epoch change and one stale fold", st)
	}
}
