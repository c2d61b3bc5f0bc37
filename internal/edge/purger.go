package edge

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/httpbody"
	counters "speedkit/internal/metrics"
)

// The Purger's shape was measured with speedkit-load's write_storm
// wired to it (25 s, seed 29, 2-core host, 7 500–13 000 purges/s), with
// a fixed delay added to each send for the round trip to a remote edge.
// "merged" are purges absorbed by the same path already queued:
//
//	senders  RTT    purged   merged   sent     dropped  peak queue
//	1        0      269 046    7 656  261 390        0  59
//	1        1 ms   324 776  231 593   19 133   74 050  full
//	1        10 ms  319 832  212 513    3 444  103 875  full
//	16       0      200 805      650  200 155        0  12
//	16       1 ms   188 622    1 546  187 076        0  29
//	16       10 ms  255 626  193 784   38 631   23 211  full
//
// A sender delivers at most 1/RTT purges a second, so purgeSenders sets
// the ceiling: 16 000/s at 1 ms, 1 600/s at 10 ms. Below it the queue
// never held more than 59 paths. Above it the queue stays full whatever
// its size, and its size sets how many distinct paths wait there to
// absorb later purges. That is why purgeQueue is far above the peak:
// at 10 ms it turns three quarters of the purges into merges, not drops.
// A faster stream against a distant edge needs batched purges, not a
// longer queue.
const (
	purgeSenders = 16
	purgeQueue   = 1024
	purgeTimeout = 5 * time.Second
)

// PurgerConfig is what a Purger reports to its owner. The zero value
// counts drops privately and reports nothing.
type PurgerConfig struct {
	// Dropped counts purges that never reached the edge. Pass a
	// registry counter to watch it while the process runs; nil keeps a
	// private one. Dropped() reads it either way.
	Dropped *counters.Counter
	// OnFailing is called with the error of the first failed send, and
	// again only after a send has succeeded in between: a wrong URL or a
	// down edge shows at once, without a line per purge.
	OnFailing func(error)
}

// Purger is the sending side of POST /v1/purge: the invalidation
// pipeline hands it purged paths, and a fixed pool of senders posts
// them to an edge over kept-alive connections. It is best-effort by
// design — a purge that never arrives leaves the edge's copy to the
// sketch, which forces a revalidation within Δ — so Purge never blocks
// the pipeline, and what does not reach the edge is only counted.
// Purges are idempotent evictions; they may arrive in any order, and a
// purge of a path already waiting in the queue is absorbed by it: the
// waiting one is sent after the later write, so it evicts what both
// would have.
type Purger struct {
	prefix    string // "<edge>/v1/purge?path="
	hc        *http.Client
	dropped   *counters.Counter
	onFailing func(error)
	failing   atomic.Bool

	// ctx ends the sends in flight when Close runs out of time.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed once every sender has returned

	// mu orders Purge against Close — the pipeline calls Purge from any
	// goroutine, and a send on the closed queue would panic — and guards
	// queued, the paths in the queue, which the queue's capacity bounds.
	mu     sync.Mutex
	closed bool
	queue  chan string
	queued map[string]struct{}
}

// NewPurger starts a Purger posting to the edge at base (e.g.
// "http://host:8081"). It owns its connections: one per sender, kept
// alive between purges.
func NewPurger(base string, cfg PurgerConfig) *Purger {
	pu := &Purger{
		prefix: strings.TrimRight(base, "/") + "/v1/purge?path=",
		hc: &http.Client{
			Timeout:   purgeTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: purgeSenders, MaxConnsPerHost: purgeSenders},
		},
		dropped:   cfg.Dropped,
		onFailing: cfg.OnFailing,
		done:      make(chan struct{}),
		queue:     make(chan string, purgeQueue),
		queued:    make(map[string]struct{}, purgeQueue),
	}
	if pu.dropped == nil {
		pu.dropped = counters.NewCounter()
	}
	pu.ctx, pu.cancel = context.WithCancel(context.Background())
	var senders sync.WaitGroup
	senders.Add(purgeSenders)
	for range purgeSenders {
		go func() {
			defer senders.Done()
			pu.run()
		}()
	}
	go func() {
		senders.Wait()
		close(pu.done)
	}()
	return pu
}

// Purge queues one path for the edge, unless it is queued already. It
// never blocks: with the queue full, or the Purger closed, the purge is
// dropped and counted.
func (pu *Purger) Purge(path string) {
	pu.mu.Lock()
	defer pu.mu.Unlock()
	if pu.closed {
		pu.dropped.Inc()
		return
	}
	if _, ok := pu.queued[path]; ok {
		return
	}
	select {
	case pu.queue <- path:
		pu.queued[path] = struct{}{}
	default:
		pu.dropped.Inc()
	}
}

// Dropped returns how many purges never reached the edge: queue
// overflow, purges after Close or cut off by its deadline, and sends
// that failed or were refused.
func (pu *Purger) Dropped() uint64 { return pu.dropped.Value() }

// Close stops accepting purges and sends what is queued until ctx ends;
// then it aborts the sends in flight, counts what is left as dropped and
// returns ctx's error. It is safe to call more than once.
func (pu *Purger) Close(ctx context.Context) error {
	pu.mu.Lock()
	if !pu.closed {
		pu.closed = true
		close(pu.queue)
	}
	pu.mu.Unlock()
	var err error
	select {
	case <-pu.done:
	case <-ctx.Done():
		err = ctx.Err()
		pu.cancel()
		<-pu.done
	}
	pu.cancel()
	pu.hc.CloseIdleConnections()
	return err
}

func (pu *Purger) run() {
	for path := range pu.queue {
		pu.mu.Lock()
		delete(pu.queued, path) // a purge from here on queues it again
		pu.mu.Unlock()
		if pu.ctx.Err() != nil {
			pu.dropped.Inc() // Close ran out of time
			continue
		}
		if err := pu.send(path); err != nil {
			pu.dropped.Inc()
			if pu.failing.CompareAndSwap(false, true) && pu.onFailing != nil && pu.ctx.Err() == nil {
				pu.onFailing(err)
			}
		} else if pu.failing.Load() {
			pu.failing.Store(false)
		}
	}
}

// send posts one purge and drains whatever body comes back, so the
// connection goes back to the pool whatever the edge answered.
func (pu *Purger) send(path string) error {
	req, err := http.NewRequestWithContext(pu.ctx, http.MethodPost, pu.prefix+httpbody.QueryValue(path), nil)
	if err != nil {
		return err
	}
	resp, err := pu.hc.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("edge answered %s", resp.Status)
	}
	return nil
}
