package proxy

import (
	"context"
	"slices"
	"testing"
	"time"

	"speedkit/internal/obs"
)

// TestSketchVouchesOnlyForHeldCopies walks one device session. A cold load
// holds nothing a sketch could vouch for, so it is one Fetch. A revisit
// holds a copy: it fetches the sketch, which clears the copy, and serves
// it from the device. The copies the device stored before that first
// sketch are trusted only if the answers that brought them stated the
// sketch's own epoch; any other, or none, and every one of them is
// revalidated once.
func TestSketchVouchesOnlyForHeldCopies(t *testing.T) {
	const other = 0x5eed
	for _, c := range []struct {
		name string
		// epochs the answers for "/" and "/plain" state; "server" is the
		// sketch server's own.
		root, plain string
		revalidate  bool
	}{
		{"same epoch", "server", "server", false},
		{"another epoch", "other", "other", true},
		{"two epochs", "server", "other", true},
		{"no epoch", "none", "server", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, tr, clk := newTestProxy(t, nil)
			stated := func(name string) uint64 {
				switch name {
				case "server":
					return tr.sketchSrv.Epoch()
				case "other":
					return other
				}
				return 0
			}
			tr.epochs = map[string]uint64{"/": stated(c.root), "/plain": stated(c.plain)}
			ctx := context.Background()
			for _, path := range []string{"/", "/plain"} {
				res, err := p.Load(ctx, path)
				if err != nil {
					t.Fatal(err)
				}
				if res.SketchRefreshed || res.Source != SourceCDN {
					t.Fatalf("cold load of %s: refreshed %v, source %v", path, res.SketchRefreshed, res.Source)
				}
			}
			if want := []string{"Fetch", "Fetch"}; !slices.Equal(tr.calls, want) {
				t.Fatalf("cold loads made calls %v, want %v", tr.calls, want)
			}

			clk.Advance(time.Second)
			tr.calls = nil
			res, err := p.Load(ctx, "/")
			if err != nil {
				t.Fatal(err)
			}
			if !res.SketchRefreshed || tr.calls[0] != "FetchSketch" {
				t.Fatalf("revisit: refreshed %v, calls %v; want the sketch fetched first", res.SketchRefreshed, tr.calls)
			}
			if c.revalidate {
				if !res.Revalidated || !slices.Equal(tr.calls, []string{"FetchSketch", "Revalidate"}) {
					t.Fatalf("revisit: revalidated %v, calls %v; want the copy revalidated", res.Revalidated, tr.calls)
				}
				return
			}
			if res.Source != SourceDevice || len(tr.calls) != 1 {
				t.Fatalf("revisit: source %v, calls %v; want the device under the sketch alone", res.Source, tr.calls)
			}
		})
	}
}

// TestRevalidateWithoutCopyIsAFetch: with no copy there is no version to
// condition on, so a revalidation is the plain fetch.
func TestRevalidateWithoutCopyIsAFetch(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	var res PageLoad
	e, err := p.revalidateShell(context.Background(), "/plain", &res)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tr.calls, []string{"Fetch"}) || string(e.Body) != "<html>no blocks</html>" {
		t.Fatalf("revalidation without a copy: calls %v, body %q; want one Fetch and the page", tr.calls, e.Body)
	}
}

// TestSketchlessLoadBurnsNoBudget: a load that fetched no sketch served
// nothing on a sketch's word. It is observed at budget 0 — not at the
// Δ + 1 s Age reports while no sketch is held, which would read as a
// breach — even when the sketch endpoint is down.
func TestSketchlessLoadBurnsNoBudget(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	slo := obs.NewDeltaSLO(obs.SLOConfig{Clock: clk, Registry: obs.NewRegistry()})
	p.cfg.SLO = slo
	p.cfg.Tracer = obs.NewTracer(clk, 1, 8)
	tr.sketchDown = true
	if _, err := p.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	snap := slo.Snapshot()
	if len(snap.Sources) != 1 || snap.Sources[0].Total != 1 || snap.Sources[0].Sum != 0 {
		t.Fatalf("SLO sources %+v, want one load at budget 0", snap.Sources)
	}
	if w := snap.Windows[0]; w.Total != 1 || w.Breached != 0 {
		t.Fatalf("SLO window %+v, want one load and no breach", w)
	}
	traces := p.cfg.Tracer.Recent(1)
	if len(traces) != 1 || traces[0].SketchAge != 0 || traces[0].DeltaBudget != 0 {
		t.Fatalf("trace %+v, want sketch age and budget 0", traces)
	}
	if len(tr.calls) != 1 || tr.calls[0] != "Fetch" {
		t.Fatalf("calls %v, want one Fetch", tr.calls)
	}
}
