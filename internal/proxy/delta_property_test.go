package proxy

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/session"
)

// TestProxyDeltaAtomicityProperty mirrors the protocol-level property
// test one layer up: the full device proxy (sketch refresh discipline,
// device cache, conditional revalidation) against a versioned fake
// transport, under random write/read/advance interleavings. No load may
// return a version staler than Δ.
func TestProxyDeltaAtomicityProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, delta := range []time.Duration{2 * time.Second, 15 * time.Second} {
			runProxyDeltaTrial(t, seed, delta)
		}
	}
}

func runProxyDeltaTrial(t *testing.T, seed int64, delta time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSimulated(time.Time{})
	srv := cachesketch.NewServer(cachesketch.ServerConfig{Capacity: 1000, Clock: clk})
	log := cachesketch.NewVersionLog()

	const nKeys = 12
	versions := make([]uint64, nKeys)
	keyOf := func(i int) string { return fmt.Sprintf("/k/%d", i) }

	// versionedTransport serves the current version with a 45 s TTL and
	// reports fills/revalidations to the sketch server, like core does.
	tr := &versionedTransport{
		clk: clk, srv: srv,
		current: func(path string) uint64 {
			var i int
			fmt.Sscanf(path, "/k/%d", &i)
			return versions[i]
		},
	}
	p := NewSplit(Config{Clock: clk, Delta: delta}, tr, tr)

	for i := 0; i < nKeys; i++ {
		versions[i] = 1
		log.RecordWrite(keyOf(i), 1, clk.Now())
	}
	for op := 0; op < 3000; op++ {
		k := rng.Intn(nKeys)
		switch {
		case rng.Float64() < 0.15: // write
			versions[k]++
			log.RecordWrite(keyOf(k), versions[k], clk.Now())
			srv.ReportWrite(keyOf(k))
		default: // read through the proxy
			res, err := p.Load(context.Background(), keyOf(k))
			if err != nil {
				t.Fatalf("seed=%d Δ=%v: %v", seed, delta, err)
			}
			if st := log.Staleness(keyOf(k), res.Version, clk.Now()); st > delta {
				t.Fatalf("seed=%d Δ=%v op=%d: staleness %v exceeds Δ (source=%v)",
					seed, delta, op, st, res.Source)
			}
		}
		clk.Advance(time.Duration(rng.Intn(700)) * time.Millisecond)
	}
	if p.Stats().DeviceHits == 0 {
		t.Fatalf("seed=%d Δ=%v: vacuous trial, no device hits", seed, delta)
	}
}

// versionedTransport is a minimal origin+sketch transport for property
// trials: every fetch serves the current version of the key.
type versionedTransport struct {
	clk     *clock.Simulated
	srv     *cachesketch.Server
	current func(path string) uint64
}

const trialTTL = 45 * time.Second

func (v *versionedTransport) FetchSketch(context.Context) (*cachesketch.Snapshot, error) {
	return v.srv.Snapshot(), nil
}

func (v *versionedTransport) Fetch(_ context.Context, path string) (cache.Entry, Source, error) {
	e := cache.TTLEntry(v.clk, path, []byte("body"), v.current(path), trialTTL)
	v.srv.ReportCachedRead(path, e.ExpiresAt)
	return e, SourceOrigin, nil
}

func (v *versionedTransport) Revalidate(ctx context.Context, path string, known uint64) (RevalidationResult, error) {
	if v.current(path) == known {
		e := cache.TTLEntry(v.clk, path, nil, known, trialTTL)
		v.srv.ReportCachedRead(path, e.ExpiresAt)
		return RevalidationResult{NotModified: true, Entry: e, Source: SourceOrigin}, nil
	}
	e, src, err := v.Fetch(ctx, path)
	return RevalidationResult{Entry: e, Source: src}, err
}

func (v *versionedTransport) FetchBlocks(context.Context, []string, *session.User) ([][]byte, error) {
	return nil, nil
}
