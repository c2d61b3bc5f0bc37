package cachesketch

import (
	"testing"
	"time"

	"speedkit/internal/clock"
)

func TestClientNeedsRefreshInitially(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	c := NewClient(clk, 30*time.Second)
	if !c.NeedsRefresh() {
		t.Fatal("empty client claims freshness")
	}
	if d := c.Check("/x"); d != RefreshSketch {
		t.Fatalf("Check = %v, want RefreshSketch", d)
	}
}

func TestClientFreshnessWindow(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	srv := NewServer(ServerConfig{Clock: clk})
	c := NewClient(clk, 30*time.Second)
	c.Install(srv.Snapshot())
	if c.NeedsRefresh() {
		t.Fatal("fresh snapshot flagged for refresh")
	}
	clk.Advance(29 * time.Second)
	if c.NeedsRefresh() {
		t.Fatal("refresh needed before Δ elapsed")
	}
	clk.Advance(time.Second)
	if !c.NeedsRefresh() {
		t.Fatal("refresh not needed at Δ")
	}
	if d := c.Check("/x"); d != RefreshSketch {
		t.Fatalf("Check on stale sketch = %v", d)
	}
}

func TestClientCheckDecisions(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	srv := NewServer(ServerConfig{Clock: clk})
	srv.ReportCachedRead("/stale", clk.Now().Add(time.Hour))
	srv.ReportWrite("/stale")

	c := NewClient(clk, time.Minute)
	c.Install(srv.Snapshot())

	if d := c.Check("/stale"); d != Revalidate {
		t.Fatalf("Check(/stale) = %v, want Revalidate", d)
	}
	if d := c.Check("/clean"); d != ServeFromCache {
		t.Fatalf("Check(/clean) = %v, want ServeFromCache", d)
	}
	st := c.Stats()
	if st.StaleHits != 1 || st.FreshPasses != 1 || st.Refreshes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientInstallOrdering(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	srv := NewServer(ServerConfig{Clock: clk})
	sn1 := srv.Snapshot()
	sn2 := srv.Snapshot()
	c := NewClient(clk, time.Minute)
	c.Install(sn2)
	c.Install(sn1) // older generation must be ignored
	c.Install(nil) // no-op
	clk.Advance(30 * time.Second)
	if c.NeedsRefresh() {
		t.Fatal("held snapshot lost")
	}
	if got := c.Stats().Refreshes; got != 1 {
		t.Fatalf("refreshes = %d, want 1 (old+nil ignored)", got)
	}
}

func TestClientAge(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	c := NewClient(clk, time.Minute)
	if c.Age() <= time.Minute {
		t.Fatal("empty client age should exceed Δ")
	}
	srv := NewServer(ServerConfig{Clock: clk})
	c.Install(srv.Snapshot())
	clk.Advance(10 * time.Second)
	if c.Age() != 10*time.Second {
		t.Fatalf("age = %v", c.Age())
	}
}

// TestClientDefaults: a client built with no Δ takes the max-age its held
// snapshot came with. It vouches for nothing while it holds none, nor once
// the held one is its max-age old, and a snapshot that stated no max-age
// vouches for nothing at all.
func TestClientDefaults(t *testing.T) {
	if c := NewClient(nil, -time.Second); c.Delta() != 0 || c.Check("/x") != RefreshSketch {
		t.Fatalf("empty client without Δ: Δ %v, Check %v", c.Delta(), c.Check("/x"))
	}
	clk := clock.NewSimulated(time.Unix(1000, 0))
	c := NewClient(clk, 0)
	srv := NewServer(ServerConfig{Clock: clk})
	sn := srv.Snapshot()
	sn.MaxAge = 4 * time.Second
	c.Install(sn)
	if c.Delta() != 4*time.Second || c.Check("/x") != ServeFromCache {
		t.Fatalf("held max-age 4s: Δ %v, Check %v", c.Delta(), c.Check("/x"))
	}
	clk.Advance(4*time.Second - time.Nanosecond)
	if d := c.Check("/x"); d != ServeFromCache {
		t.Fatalf("just short of its max-age: Check %v", d)
	}
	clk.Advance(time.Nanosecond)
	if d := c.Check("/x"); d != RefreshSketch {
		t.Fatalf("at its max-age: Check %v, want RefreshSketch", d)
	}
	c.Install(srv.Snapshot())
	if c.Delta() != 0 || c.Check("/x") != RefreshSketch {
		t.Fatalf("no max-age stated: Δ %v, Check %v", c.Delta(), c.Check("/x"))
	}
}

func TestDecisionString(t *testing.T) {
	if ServeFromCache.String() != "serve-from-cache" || Revalidate.String() != "revalidate" ||
		RefreshSketch.String() != "refresh-sketch" || Decision(9).String() != "unknown" {
		t.Fatal("decision names wrong")
	}
}
