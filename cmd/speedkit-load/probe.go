package main

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/cdn"
	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/edge"
	"speedkit/internal/invalidb"
	"speedkit/internal/netsim"
	"speedkit/internal/session"
	"speedkit/internal/storage"
)

// serverStats is one reading of every public Stats() the server side
// offers; two readings bracket the measured phase.
type serverStats struct {
	core    core.Stats
	cdn     cdn.Stats
	sketch  cachesketch.ServerStats
	engine  invalidb.Stats
	edge    edge.Stats
	durable durable.Stats
}

func (d *deployment) readStats() serverStats {
	s := serverStats{
		core:   d.svc.Stats(),
		cdn:    d.svc.CDN().Stats(),
		sketch: d.svc.SketchServer().Stats(),
		engine: d.svc.Engine().Stats(),
	}
	if d.edge != nil {
		s.edge = d.edge.Stats()
	}
	if d.store != nil {
		s.durable = d.store.Stats()
	}
	return s
}

// meanMicros is total spread over n calls, in µs.
func meanMicros(n int, total time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / 1e3 / float64(n)
}

// timed runs fn over inputs on the calling goroutine and returns the
// mean time per call in µs.
func timed(inputs []string, fn func(string) error) (float64, error) {
	sw := clock.NewStopwatch(clock.System)
	for _, in := range inputs {
		if err := fn(in); err != nil {
			return 0, err
		}
	}
	return meanMicros(len(inputs), sw.Elapsed()), nil
}

func distinct(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range in {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// probeBlocks times the first-party block path for user, probeInputs
// times over.
func (d *deployment) probeBlocks(m map[string]float64, user *session.User) error {
	pages := make([]string, probeInputs)
	var err error
	m["origin.render_block_us"], _ = timed(pages, func(string) error { d.org.RenderBlock("reco", user); return nil })
	m["core.fetch_blocks_us"], err = timed(pages, func(string) error {
		_, _, err := d.svc.FetchBlocks(context.Background(), netsim.EU, []string{"reco"}, user)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe blocks: %w", err)
	}
	return nil
}

// probe times the server-side layers no wrapper can reach: one
// goroutine replays the first probeInputs ops of the run straight into
// public functions of the live deployment, after the HTTP phase. It
// fills the per-layer metrics it measures into m.
func (d *deployment) probe(lists [][]op, m map[string]float64) error {
	ctx := context.Background()
	var pages, products, listings, writes []string
	for i := 0; len(pages)+len(writes) < probeInputs; i++ {
		v, k := i%len(lists), i/len(lists)
		if k >= len(lists[v]) {
			break
		}
		o := lists[v][k]
		switch {
		case o.kind == opWrite:
			writes = append(writes, o.arg)
		case strings.HasPrefix(o.arg, "/product/"):
			products = append(products, o.arg)
			pages = append(pages, o.arg)
		case o.arg != "/":
			listings = append(listings, o.arg)
			pages = append(pages, o.arg)
		default:
			pages = append(pages, o.arg)
		}
	}
	var err error

	// origin: renders alone. A listing page of the large catalog takes
	// tens of milliseconds to render, so each is rendered once.
	render := func(path string) error { _, err := d.org.Render(path); return err }
	if m["origin.render_product_us"], err = timed(products, render); err != nil {
		return fmt.Errorf("probe render: %w", err)
	}
	if m["origin.render_listing_us"], err = timed(distinct(listings), render); err != nil {
		return fmt.Errorf("probe render: %w", err)
	}

	// core.Fetch: with the simulated CDN emptied, the first fetch of
	// each distinct path renders at the origin; a second pass over the
	// same inputs is then answered by the CDN.
	d.svc.CDN().PurgeAll()
	fetch := func(path string) error { _, _, _, err := d.svc.Fetch(ctx, netsim.EU, path); return err }
	if m["core.fetch_origin_us"], err = timed(distinct(pages), fetch); err != nil {
		return fmt.Errorf("probe fetch: %w", err)
	}
	if m["core.fetch_cdn_us"], err = timed(pages, fetch); err != nil {
		return fmt.Errorf("probe fetch: %w", err)
	}

	// sketch: the snapshot as core hands it out, and snapshot + wire form.
	m["cachesketch.sketch_bytes"] = float64(d.svc.SketchServer().SketchBytes())
	if m["core.fetch_sketch_us"], err = timed(pages, func(string) error {
		_, _, err := d.svc.FetchSketch(ctx, netsim.EU)
		return err
	}); err != nil {
		return fmt.Errorf("probe sketch: %w", err)
	}
	if m["cachesketch.snapshot_marshal_us"], err = timed(pages, func(string) error {
		_, err := d.svc.SketchServer().Snapshot().Marshal()
		return err
	}); err != nil {
		return fmt.Errorf("probe sketch marshal: %w", err)
	}

	// The write pipeline, Docs().Patch: storage, matcher, sketch, WAL,
	// purge. A watcher keeps the change events for the matcher probe.
	if len(writes) == 0 {
		return nil
	}
	var events []storage.ChangeEvent
	cancel := d.svc.Docs().Watch(func(ev storage.ChangeEvent) { events = append(events, ev) })
	m["core.write_pipeline_us"], err = timed(writes, func(q string) error {
		id, patch, err := parseWrite(q)
		if err != nil {
			return err
		}
		return d.svc.Docs().Patch("products", id, patch)
	})
	cancel()
	if err != nil {
		return fmt.Errorf("probe write: %w", err)
	}

	// invalidb alone: a stand-alone engine holding the deployment's
	// queries, no listeners.
	eng := invalidb.New(invalidb.Config{Clock: clock.System})
	for path, q := range d.org.QueryPages() {
		eng.Register(path, q)
	}
	sw := clock.NewStopwatch(clock.System)
	for _, ev := range events {
		eng.Process(ev)
	}
	m["invalidb.process_us"] = meanMicros(len(events), sw.Elapsed())
	return nil
}

// parseWrite turns a write op's query string into the patch
// httpapi.handleWrite would apply.
func parseWrite(q string) (id string, patch map[string]any, err error) {
	vals, err := url.ParseQuery(q)
	if err != nil {
		return "", nil, err
	}
	patch = map[string]any{}
	if p := vals.Get("price"); p != "" {
		if patch["price"], err = strconv.ParseFloat(p, 64); err != nil {
			return "", nil, err
		}
	}
	if s := vals.Get("stock"); s != "" {
		if patch["stock"], err = strconv.ParseInt(s, 10, 64); err != nil {
			return "", nil, err
		}
	}
	return vals.Get("product"), patch, nil
}
