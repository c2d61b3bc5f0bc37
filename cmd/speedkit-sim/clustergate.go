package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/cluster"
	"speedkit/internal/durable"
	"speedkit/internal/faults"
	"speedkit/internal/gdpr"
	"speedkit/internal/invalidb"
	"speedkit/internal/query"
	"speedkit/internal/session"
	"speedkit/internal/storage"
)

// runCluster is the -cluster gate: a 3-node coordinator-free deployment
// of the server side — per-node shard sketches over per-node WAL
// directories, delta exchange pulled over REAL loopback HTTP (every
// member's DeltaSource is a cluster.Peer against its NodeHandler), and a
// protocol client installing only the merged filter. Seeded faults kill
// nodes (unclean WAL close, recovery under a new epoch) and blackhole
// exchange pulls (partition); the driver advances one shared simulated
// clock, so twin runs on one seed are bit-for-bit comparable. The gate
// asserts:
//
//  1. Sharded matching is exact — with all nodes up, broadcasting a
//     change event and unioning the per-node matches equals a single
//     unsharded InvaliDB engine over the same registrations.
//  2. Cluster-wide Δ-atomicity — every cache serve throughout kills,
//     recoveries, and partitions stays within Δ of the first
//     acknowledged write against it. Failed routes to a dead shard are
//     unacknowledged (the write did not happen) and create no
//     obligation.
//  3. The faults actually bit — node kills fired and recovered, and
//     exchange pulls were dropped.
//  4. Twin-run determinism — two runs on the same seed produce identical
//     fault schedules, identical merged generations, and byte-identical
//     merged sketch exports.
//  5. GDPR — pseudonymized cart keys routed through the cluster leave no
//     raw user identity in any per-node persisted byte.
//  6. No goroutine leaks once the nodes and listeners shut down.
//
// Violations exit non-zero, so `make cluster` is a CI gate, not a demo.
//
// The Δ budget is DESIGN.md's cluster rule, with nothing to spare: the
// cluster derives its exchange period and frame age from Δ, and the
// client trusts each merged sketch for Δ less their sum (Cluster.Lag), as
// a device trusts the max-age /v1/sketch states.
func runCluster(seed int64, products int) {
	const (
		nodeCount    = 3
		delta        = 30 * time.Second
		tick         = time.Second
		rounds       = 600
		opsPerRound  = 4
		recoverAfter = 8 // ticks a killed node stays down
	)

	violations := 0
	fail := func(format string, args ...any) {
		violations++
		fmt.Fprintf(os.Stderr, "CLUSTER VIOLATION: "+format+"\n", args...)
	}

	_ = clock.CoarseSystem.Now()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	type runResult struct {
		scheduleHash uint64
		export       []byte
		generation   uint64
		kills        uint64
		recoveries   uint64
		drops        uint64
		failedRoutes uint64
		serves       int
		maxStale     time.Duration
		dirs         []string
	}

	run := func() runResult {
		var res runResult
		start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		clk := clock.NewSimulated(start)
		inj := faults.New(clk, seed,
			faults.Rule{Component: faults.NodeKill, Kind: faults.Crash, Probability: 0.01},
			faults.Rule{Component: faults.DeltaExchange, Kind: faults.Blackhole, Probability: 0.05},
		)

		nodes := make([]*cluster.Node, nodeCount)
		for i := range nodes {
			dir, err := os.MkdirTemp("", "speedkit-cluster-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "cluster: scratch dir:", err)
				os.Exit(1)
			}
			res.dirs = append(res.dirs, dir)
			nodes[i] = cluster.NewNode(cluster.NodeConfig{
				Member:         fmt.Sprintf("node-%d", i),
				Clock:          clk,
				SketchCapacity: uint64(products) * 4,
				Durable:        durable.New(durable.Config{Dir: dir, Clock: clk, SnapshotEvery: 64}),
			})
			if _, err := nodes[i].Recovery(); err != nil {
				fmt.Fprintln(os.Stderr, "cluster: node:", err)
				os.Exit(1)
			}
		}
		c, err := cluster.New(cluster.Config{Seed: seed, Delta: delta, Faults: inj}, nodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster:", err)
			os.Exit(1)
		}
		syncEvery := int(c.SyncPeriod() / tick)

		// Real loopback HTTP: each member serves its /v1/cluster surface
		// and the merge layer pulls frames through a Peer, exactly as a
		// multi-process deployment would.
		servers := make([]*httptest.Server, 0, nodeCount)
		for _, n := range nodes {
			srv := httptest.NewServer(cluster.NodeHandler(n))
			servers = append(servers, srv)
			if err := c.UseDeltaSource(cluster.NewPeer(n.Name(), srv.URL, srv.Client())); err != nil {
				fmt.Fprintln(os.Stderr, "cluster: peer:", err)
				os.Exit(1)
			}
		}

		// 1. Oracle phase (all nodes up): sharded matching must be exact.
		oracle := invalidb.New(invalidb.Config{Clock: clk})
		for i := 0; i < 32; i++ {
			id := fmt.Sprintf("q:products?cat=%d", i)
			q := query.New("products", query.Eq("category", fmt.Sprintf("cat-%d", i%8)))
			if err := c.Register(id, q); err != nil {
				fail("register %s: %v", id, err)
			}
			oracle.Register(id, q)
		}
		for i := 0; i < 16; i++ {
			id := fmt.Sprintf("p%05d", i)
			ev := storage.ChangeEvent{
				Collection: "products",
				ID:         id,
				Kind:       storage.ChangeUpdate,
				Before:     query.NewDoc(id, map[string]any{"category": fmt.Sprintf("cat-%d", i%8)}),
				After:      query.NewDoc(id, map[string]any{"category": fmt.Sprintf("cat-%d", (i+3)%8)}),
				Time:       clk.Now(),
			}
			got, err := c.Process(ev)
			if err != nil {
				fail("event %d: %v", i, err)
				continue
			}
			want := oracle.Process(ev)
			g := make([]string, len(got))
			for j, inv := range got {
				g[j] = inv.RegistrationID
			}
			w := make([]string, len(want))
			for j, inv := range want {
				w[j] = inv.RegistrationID
			}
			sort.Strings(g)
			sort.Strings(w)
			if fmt.Sprint(g) != fmt.Sprint(w) {
				fail("event %d: sharded matches %v != oracle %v", i, g, w)
			}
		}

		// 5. GDPR probe: user-derived keys enter the cluster only
		// pseudonymized; the raw identities must never reach a WAL.
		for _, u := range session.Population(seed, 10) {
			key := "/cart/" + gdpr.Pseudonymize(u.ID)
			_ = c.ReportFill(key, clk.Now().Add(time.Hour))
			_, _ = c.ReportWrite(key)
		}

		// 2. Fault-driven main loop. The reference model records, per
		// cached key, when the copy was stored and when the first
		// ACKNOWLEDGED write against it landed; a cache serve more than Δ
		// after that first write is a staleness violation.
		type entry struct {
			cached   bool
			firstInv time.Time
		}
		model := map[string]*entry{}
		rng := rand.New(rand.NewSource(seed))
		client := cachesketch.NewClient(clk, delta-c.Lag())
		client.Install(c.Snapshot())
		recoverAt := map[string]int{}

		for t := 1; t <= rounds; t++ {
			clk.Advance(tick)

			// Driver-scheduled kills and recoveries, in member order so the
			// injector's draw sequence is identical across twin runs.
			for _, name := range c.Ring().Members() {
				n := c.Node(name)
				if at, down := recoverAt[name]; down {
					if t >= at {
						if _, err := n.Recover(); err != nil {
							fail("recover %s: %v", name, err)
						}
						delete(recoverAt, name)
						res.recoveries++
					}
					continue
				}
				if d := inj.Decide(faults.NodeKill); d.Faulted() {
					if err := n.Kill(); err != nil {
						fail("kill %s: %v", name, err)
					}
					recoverAt[name] = t + recoverAfter
					res.kills++
				}
			}

			for op := 0; op < opsPerRound; op++ {
				key := fmt.Sprintf("/product/p%05d", rng.Intn(products))
				now := clk.Now()
				e := model[key]
				if e == nil {
					e = &entry{}
					model[key] = e
				}
				if rng.Float64() < 0.3 {
					// Backend write. Only an acknowledged write creates a
					// staleness obligation: a failed route means the shard
					// owner never saw it.
					if _, err := c.ReportWrite(key); err == nil {
						if e.cached && e.firstInv.IsZero() {
							e.firstInv = now
						}
					}
					continue
				}
				// Page load through the protocol client.
				d := client.Check(key)
				if d == cachesketch.RefreshSketch {
					client.Install(c.Snapshot())
					d = client.Check(key)
				}
				switch d {
				case cachesketch.ServeFromCache:
					if e.cached {
						res.serves++
						if !e.firstInv.IsZero() {
							stale := now.Sub(e.firstInv)
							if stale > res.maxStale {
								res.maxStale = stale
							}
							if stale > delta {
								fail("cache serve of %s %v after its first acknowledged write (Δ=%v)",
									key, stale, delta)
							}
						}
					} else if err := c.ReportFill(key, now.Add(time.Hour)); err == nil {
						// Cache fill, acknowledged by the shard owner. An
						// unacknowledged fill is not cached — the cluster
						// would never invalidate a copy it cannot see.
						e.cached = true
						e.firstInv = time.Time{}
					}
				case cachesketch.Revalidate:
					// Revalidation fetches the current version: the copy is
					// fresh again if the owner acknowledges it.
					if err := c.ReportFill(key, now.Add(time.Hour)); err == nil {
						e.cached = true
						e.firstInv = time.Time{}
					} else {
						e.cached = false
					}
				}
			}

			if t%syncEvery == 0 {
				// Exchange errors are the point: down members and injected
				// blackholes degrade the merge, they do not stop the driver.
				_ = c.SyncDeltas()
			}
			if client.NeedsRefresh() {
				client.Install(c.Snapshot())
			}
		}

		// Settle: recover everyone, run clean exchanges, and capture the
		// terminal merged state.
		for name := range recoverAt {
			if _, err := c.Node(name).Recover(); err != nil {
				fail("final recover %s: %v", name, err)
			}
			res.recoveries++
		}
		for i := 0; i < nodeCount+1; i++ {
			if err := c.SyncDeltas(); err == nil {
				break
			}
		}
		res.generation = c.Snapshot().Generation
		export, err := c.Export()
		if err != nil {
			fail("export: %v", err)
		}
		res.export = export
		res.scheduleHash = inj.ScheduleHash()
		st := c.Stats()
		res.drops = st.DroppedExchanges
		res.failedRoutes = st.FailedRoutes

		for _, srv := range servers {
			srv.Close()
		}
		if err := c.Close(); err != nil {
			fail("close: %v", err)
		}
		return res
	}

	sw := clock.NewStopwatch(clock.System)
	r1 := run()
	r2 := run()
	for _, r := range []runResult{r1, r2} {
		for _, d := range r.dirs {
			defer os.RemoveAll(d)
		}
	}

	fmt.Printf("cluster: seed=%d nodes=%d Δ=%v rounds=%d (%v wall-clock, 2 runs)\n",
		seed, nodeCount, delta, rounds, sw.Elapsed().Round(time.Millisecond))
	fmt.Printf("kills=%d recoveries=%d droppedExchanges=%d failedRoutes=%d serves=%d\n",
		r1.kills, r1.recoveries, r1.drops, r1.failedRoutes, r1.serves)
	fmt.Printf("max connected staleness %v (bound %v)\n", r1.maxStale.Round(time.Millisecond), delta)

	// 3. The faults actually bit.
	if r1.kills == 0 {
		fail("no node kills fired (seed %d) — pick another seed", seed)
	}
	if r1.recoveries < r1.kills {
		fail("%d kills but only %d recoveries", r1.kills, r1.recoveries)
	}
	if r1.drops == 0 {
		fail("no exchange pulls dropped — the partition path was never exercised")
	}
	if r1.serves == 0 {
		fail("no cache serves — the gate measured nothing")
	}

	// 4. Twin-run determinism.
	if r1.scheduleHash != r2.scheduleHash {
		fail("fault schedules diverged across seed-identical runs: %x vs %x",
			r1.scheduleHash, r2.scheduleHash)
	} else {
		fmt.Printf("schedule hash    %x (identical across runs)\n", r1.scheduleHash)
	}
	if r1.generation != r2.generation {
		fail("twin runs ended at merged generations %d vs %d", r1.generation, r2.generation)
	} else {
		fmt.Printf("merged generation %d (identical across runs)\n", r1.generation)
	}
	if !bytes.Equal(r1.export, r2.export) {
		fail("twin runs exported different merged sketch bytes")
	} else {
		fmt.Printf("merged export    %d bytes (byte-identical across runs)\n", len(r1.export))
	}

	// 5. GDPR: raw identity in no per-node persisted byte.
	idents := []string{}
	for _, u := range session.Population(seed, 10) {
		for _, v := range []string{u.ID, u.Name, u.Email} {
			if v != "" {
				idents = append(idents, v)
			}
		}
	}
	for _, r := range []runResult{r1, r2} {
		for _, dir := range r.dirs {
			hits, err := scanBytes(dir, idents)
			if err != nil {
				fail("PII scan over %s: %v", dir, err)
			}
			for _, h := range hits {
				fail("%s in node-persisted bytes under %s", h, dir)
			}
		}
	}

	// 6. No goroutine leaks.
	runtime.GC()
	leakWatch := clock.NewStopwatch(clock.System)
	for runtime.NumGoroutine() > baseline && leakWatch.Elapsed() < 2*time.Second {
		clock.Sleep(clock.System, 10*time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		fail("goroutine leak: %d before, %d after", baseline, n)
	}

	if violations > 0 {
		fmt.Fprintf(os.Stderr, "cluster: %d invariant violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Println("cluster: all invariants hold — exact sharded matching, Δ-atomicity through kills and partitions, twin-run determinism, zero persisted PII, zero leaks")
}
