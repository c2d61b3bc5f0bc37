package netsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestLinkSampleDeterministicWithSeed(t *testing.T) {
	l := Link{RTT: 100 * time.Millisecond, Jitter: 0.2, Bandwidth: 1e6, Loss: 0.01}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if l.Sample(a, 1000) != l.Sample(b, 1000) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestLinkSampleNoJitterNoLoss(t *testing.T) {
	l := Link{RTT: 50 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	if d := l.Sample(rng, 0); d != 50*time.Millisecond {
		t.Fatalf("deterministic link sampled %v", d)
	}
}

func TestLinkBandwidthTerm(t *testing.T) {
	l := Link{RTT: 10 * time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	rng := rand.New(rand.NewSource(1))
	d := l.Sample(rng, 1_000_000) // 1 MB => +1 s
	want := 10*time.Millisecond + time.Second
	if d != want {
		t.Fatalf("d = %v, want %v", d, want)
	}
}

func TestLinkJitterCentersOnRTT(t *testing.T) {
	l := Link{RTT: 100 * time.Millisecond, Jitter: 0.2}
	rng := rand.New(rand.NewSource(7))
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += l.Sample(rng, 0)
	}
	mean := sum / n
	// Log-normal mean is RTT·exp(σ²/2) ≈ 102 ms; accept 95–115 ms.
	if mean < 95*time.Millisecond || mean > 115*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestLinkLossAddsRetransmits(t *testing.T) {
	lossy := Link{RTT: 100 * time.Millisecond, Loss: 0.5}
	clean := Link{RTT: 100 * time.Millisecond}
	rng := rand.New(rand.NewSource(9))
	var lossySum, cleanSum time.Duration
	for i := 0; i < 5000; i++ {
		lossySum += lossy.Sample(rng, 0)
		cleanSum += clean.Sample(rng, 0)
	}
	if lossySum <= cleanSum+cleanSum/4 {
		t.Fatalf("loss penalty too small: %v vs %v", lossySum, cleanSum)
	}
}

func TestNetworkLinkRegistry(t *testing.T) {
	n := NewNetwork(1)
	n.SetLink("a", "b", Link{RTT: time.Millisecond})
	if _, ok := n.Link("a", "b"); !ok {
		t.Fatal("registered link missing")
	}
	if _, ok := n.Link("b", "a"); ok {
		t.Fatal("links must be directional")
	}
}

func TestNetworkUnknownLinkFallsBack(t *testing.T) {
	n := NewNetwork(1)
	d := n.Latency("ghost", "nowhere", 100)
	if d < 100*time.Millisecond {
		t.Fatalf("fallback latency suspiciously low: %v", d)
	}
}

func TestDefaultTopologyShape(t *testing.T) {
	n := DefaultTopology(1)
	// Every canonical path must exist.
	for _, r := range Regions() {
		for _, pair := range [][2]string{
			{ClientNode(r), EdgeNode(r)},
			{ClientNode(r), OriginNode},
			{EdgeNode(r), OriginNode},
		} {
			if _, ok := n.Link(pair[0], pair[1]); !ok {
				t.Fatalf("missing link %s -> %s", pair[0], pair[1])
			}
		}
	}
	// Edge paths must beat origin paths, increasingly so with distance.
	edgeEU, _ := n.Link(ClientNode(EU), EdgeNode(EU))
	origEU, _ := n.Link(ClientNode(EU), OriginNode)
	origAPAC, _ := n.Link(ClientNode(APAC), OriginNode)
	if edgeEU.RTT >= origEU.RTT {
		t.Fatal("EU edge not faster than EU origin")
	}
	if origAPAC.RTT <= origEU.RTT*3 {
		t.Fatalf("APAC origin RTT %v should dwarf EU %v", origAPAC.RTT, origEU.RTT)
	}
}

func TestDefaultTopologyDeterministic(t *testing.T) {
	a := DefaultTopology(5)
	b := DefaultTopology(5)
	for i := 0; i < 50; i++ {
		da := a.Latency(ClientNode(US), OriginNode, 5000)
		db := b.Latency(ClientNode(US), OriginNode, 5000)
		if da != db {
			t.Fatal("same-seed topologies diverged")
		}
	}
}

func TestDeviceLatencySubMillisecond(t *testing.T) {
	n := NewNetwork(3)
	for i := 0; i < 100; i++ {
		d := n.DeviceLatency()
		if d < 300*time.Microsecond || d > time.Millisecond {
			t.Fatalf("device latency %v out of range", d)
		}
	}
}

func TestRegionsOrder(t *testing.T) {
	rs := Regions()
	if len(rs) != 3 || rs[0] != EU || rs[1] != US || rs[2] != APAC {
		t.Fatalf("regions = %v", rs)
	}
}

// TestNodeNames: a name is "client-" or "edge-" and the region, and
// naming a canonical region's nodes costs no allocation.
func TestNodeNames(t *testing.T) {
	for _, c := range []struct {
		r            Region
		client, edge string
	}{
		{EU, "client-eu", "edge-eu"},
		{US, "client-us", "edge-us"},
		{APAC, "client-apac", "edge-apac"},
		{"mars", "client-mars", "edge-mars"},
	} {
		if got := ClientNode(c.r); got != c.client {
			t.Errorf("ClientNode(%q) = %q, want %q", c.r, got, c.client)
		}
		if got := EdgeNode(c.r); got != c.edge {
			t.Errorf("EdgeNode(%q) = %q, want %q", c.r, got, c.edge)
		}
	}
	n := testing.AllocsPerRun(100, func() {
		for _, r := range Regions() {
			sinkName = ClientNode(r)
			sinkName = EdgeNode(r)
		}
	})
	if n != 0 {
		t.Fatalf("naming the canonical regions' nodes allocates %.0f, want 0", n)
	}
}

var sinkName string
