package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/edge"
	"speedkit/internal/httpapi"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
	"speedkit/internal/origin"
	"speedkit/internal/query"
	"speedkit/internal/session"
	"speedkit/internal/storage"
	"speedkit/internal/workload"
)

// userPool is how many logged-in, consenting users devices draw from.
const userPool = 1000

// deployment is the real topology in one process over loopback HTTP:
// devices → edge.Proxy → httpapi.API → core.Service, wired as
// cmd/speedkit-server -notify-edge and cmd/speedkit-edge wire it.
type deployment struct {
	w   *mix
	tr  *tracer // nil on an untraced run
	org *origin.Server
	svc *core.Service
	// edge is nil when the workload points devices at the server.
	edge    *edge.Proxy
	store   *durable.Store
	dataDir string
	network *netsim.Network

	serverURL string
	// deviceURL is what devices talk to: the edge, or the server.
	deviceURL string

	servers      []*http.Server
	edgeUpstream *http.Transport
	purgeHC      *http.Client
	cancelPurge  func()
	purges       sync.WaitGroup
	stopPoll     context.CancelFunc
	pollDone     chan struct{}

	// piiAtEdge counts requests that carried a user parameter into the
	// edge — shared infrastructure that must never see identity.
	piiAtEdge atomic.Uint64
}

// newUsers makes the pool of logged-in, consenting users that devices
// draw their owners from and that /v1/blocks resolves.
func newUsers() []*session.User {
	users := make([]*session.User, userPool)
	for i := range users {
		users[i] = &session.User{
			ID:                     fmt.Sprintf("u%06d", i),
			Name:                   fmt.Sprintf("User %d", i),
			Region:                 netsim.EU,
			Tier:                   []string{"standard", "silver", "gold"}[i%3],
			LoggedIn:               true,
			ConsentPersonalization: true,
		}
	}
	return users
}

// newDeployment builds and starts the topology of w, keeping what it
// writes under dir. The server's session registry knows users. A
// non-nil tracer installs the span-recording wrappers around every
// layer boundary.
func newDeployment(w *mix, seed int64, tr *tracer, dir string, users []*session.User) (*deployment, error) {
	d := &deployment{w: w, tr: tr, network: netsim.DefaultTopology(seed)}
	if err := d.start(seed, dir, users); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) start(seed int64, dir string, users []*session.User) error {
	w := d.w
	if w.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("work dir: %w", err)
		}
		var err error
		if d.dataDir, err = os.MkdirTemp(dir, "durable-*"); err != nil {
			return fmt.Errorf("durable dir: %w", err)
		}
		d.store = durable.New(durable.Config{
			Dir:          d.dataDir,
			Clock:        clock.System,
			ColdWindow:   delta,
			BlindHorizon: 24 * time.Hour,
		})
	}

	// The canonical storefront of core.NewStorefront, from its public
	// parts, plus the facet listing pages.
	docs := storage.NewDocumentStore(clock.System)
	docs.CreateIndex("products", "category")
	if err := workload.SeedCatalog(docs, seed+1, w.products); err != nil {
		return err
	}
	org := origin.NewServer(docs, clock.System)
	d.org = org
	org.RegisterStatic("/", []byte("<h1>Store</h1><p>Featured products</p>"), "greeting", "cart", "reco")
	org.RegisterProducts("/product/", "products", "cart", "reco", "tier")
	for _, cat := range workload.Categories {
		org.RegisterQueryPage(workload.CategoryPath(cat), "Category: "+cat,
			query.New("products", query.Eq("category", cat)).OrderBy("price", false).WithLimit(24),
			"cart", "tier")
	}
	for j := 0; j < w.facets; j++ {
		cat := workload.Categories[facetCategory(j)]
		lo, hi := facetRange(w.facets, j)
		org.RegisterQueryPage(facetPath(j), fmt.Sprintf("%s %.2f-%.2f", cat, lo, hi),
			query.New("products", query.And{
				query.Eq("category", cat), query.Gte("price", lo), query.Lt("price", hi),
			}).OrderBy("price", false).WithLimit(24),
			"cart", "tier")
	}
	org.RegisterBlock("greeting", origin.GreetingBlock)
	org.RegisterBlock("cart", origin.CartBlock)
	org.RegisterBlock("reco", origin.RecommendationsBlock)
	org.RegisterBlock("tier", origin.TierPriceBlock)

	d.svc = core.NewService(core.Config{
		Clock:   clock.System,
		Seed:    seed,
		Delta:   delta,
		Durable: d.store,
		// A registry of its own, so a second deployment in this process
		// starts from zeroed instruments.
		Obs: obs.NewRegistry(),
	}, docs, org)
	if d.store != nil {
		if _, err := d.svc.Recovery(); err != nil {
			return fmt.Errorf("durable recovery: %w", err)
		}
	}

	apiHandler := httpapi.New(d.svc, users).Handler()
	if d.tr != nil {
		apiHandler = d.tr.handler(layerAPI, apiHandler)
	}
	var err error
	if d.serverURL, err = d.serve(apiHandler); err != nil {
		return err
	}
	d.deviceURL = d.serverURL
	if !w.edge {
		return nil
	}

	// The edge's upstream client: the default client of edge.New, on a
	// transport of its own so close() can drop its connections.
	d.edgeUpstream = http.DefaultTransport.(*http.Transport).Clone()
	var upstream http.RoundTripper = d.edgeUpstream
	if d.tr != nil {
		upstream = d.tr.roundTripper(layerEdgeRT, upstream)
	}
	d.edge, _, err = edge.New(edge.Options{
		Upstream: d.serverURL,
		Client:   &http.Client{Timeout: 10 * time.Second, Transport: upstream},
	})
	if err != nil {
		return fmt.Errorf("edge: %w", err)
	}
	edgeHandler := d.guardEdge(d.edge.Handler())
	if d.tr != nil {
		edgeHandler = d.tr.handler(layerEdge, edgeHandler)
	}
	if d.deviceURL, err = d.serve(edgeHandler); err != nil {
		return err
	}

	// Purge notifications, as speedkit-server -notify-edge sends them:
	// one asynchronous, best-effort POST per purged path.
	d.purgeHC = &http.Client{Timeout: 5 * time.Second}
	d.cancelPurge = d.svc.OnPurge(d.notifyEdge)

	// Sketch priming and polling, as speedkit-edge does it.
	ctx, cancel := context.WithCancel(context.Background())
	d.stopPoll = cancel
	d.pollDone = make(chan struct{})
	_ = d.edge.RefreshSketch(ctx) // a failed first fetch is tolerated, as in speedkit-edge
	go d.pollSketch(ctx)
	return nil
}

// serve starts h on a loopback port and returns its base URL.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	d.servers = append(d.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at Shutdown
	return "http://" + ln.Addr().String(), nil
}

// guardEdge is the pii_at_edge check: it sits where the edge's listener
// is and counts every request whose query carries a user parameter.
func (d *deployment) guardEdge(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.RawQuery, "user=") {
			d.piiAtEdge.Add(1)
		}
		next.ServeHTTP(w, r)
	})
}

func (d *deployment) notifyEdge(path string) {
	var sp *span
	if d.tr != nil {
		sp = d.tr.startPurge()
	}
	d.purges.Add(1)
	go func() {
		defer d.purges.Done()
		req, err := http.NewRequest(http.MethodPost, d.deviceURL+"/v1/purge?path="+url.QueryEscape(path), nil)
		if err != nil {
			return
		}
		if sp != nil {
			req.Header.Set("traceparent", sp.context().Traceparent())
		}
		resp, err := d.purgeHC.Do(req)
		if err != nil {
			return // best-effort: the sketch covers a missed purge within Δ
		}
		resp.Body.Close()
		if sp != nil {
			d.tr.finish(sp)
		}
	}()
}

// pollSketch refreshes the edge's sketch every sketchPoll until ctx ends.
func (d *deployment) pollSketch(ctx context.Context) {
	defer close(d.pollDone)
	for {
		tick, cancel := context.WithTimeout(ctx, sketchPoll)
		<-tick.Done()
		cancel()
		if ctx.Err() != nil {
			return
		}
		_ = d.edge.RefreshSketch(ctx) // the next tick retries
	}
}

// close stops every server, goroutine and connection the deployment
// started and removes its scratch directory. It is safe on a partly
// started deployment.
func (d *deployment) close() error {
	var errs []error
	if d.stopPoll != nil {
		d.stopPoll()
		<-d.pollDone
	}
	if d.cancelPurge != nil {
		d.cancelPurge()
	}
	d.purges.Wait()
	// The clients' idle connections go before the servers do: Shutdown
	// waits five seconds for a connection a transport dialled and never
	// used, which it cannot tell from one about to send.
	if d.edgeUpstream != nil {
		d.edgeUpstream.CloseIdleConnections()
	}
	if d.purgeHC != nil {
		d.purgeHC.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Edge first, so nothing is in flight toward the server.
	for i := len(d.servers) - 1; i >= 0; i-- {
		if err := d.servers[i].Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
	}
	if d.edge != nil {
		if err := d.edge.Close(); err != nil {
			errs = append(errs, fmt.Errorf("edge close: %w", err))
		}
	}
	if d.svc != nil {
		d.svc.Close()
	}
	if d.org != nil {
		d.org.Close()
	}
	if d.store != nil {
		if err := d.store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("durable close: %w", err))
		}
	}
	if d.dataDir != "" {
		if err := os.RemoveAll(d.dataDir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
