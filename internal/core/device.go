package core

import (
	"context"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/gdpr"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

// Device is one simulated device: a client proxy over this service, and
// the time the simulator models for its loads (see Load). Like its proxy,
// it runs one load at a time.
type Device struct {
	*proxy.Proxy
	link                      link
	prefetch                  int
	loadLatency, blockLatency *obs.Histogram
}

// NewDevice creates a device for a user in a region, bound to this
// service with the service's Δ and shared auditor/consent ledger. The
// user's consent choices (collected by the cookie banner in production)
// are recorded in the ledger at enrollment — the ledger is strict
// opt-in, so an unrecorded user is never personalized. originBlocks
// names the dynamic blocks the device fetches from the origin over the
// first-party channel; it renders every other block itself.
func (s *Service) NewDevice(u *session.User, region netsim.Region, originBlocks ...string) *Device {
	if u != nil && u.LoggedIn {
		now := s.cfg.Clock.Now()
		if u.ConsentPersonalization {
			s.consent.Grant(u.ID, gdpr.PurposePersonalization, now)
		}
		if u.ConsentAnalytics {
			s.consent.Grant(u.ID, gdpr.PurposeAnalytics, now)
		}
	}
	s.mu.Lock()
	s.devSeq++
	seq := s.devSeq
	s.mu.Unlock()
	// Each device gets a distinct deterministic seed for its retry-jitter
	// stream: correlated jitter across a fleet would re-synchronize the
	// retry storms backoff exists to break up.
	res := s.cfg.DeviceResilience
	res.Seed = s.cfg.Seed + res.Seed + seq*7919
	fromOrigin := make(map[string]bool, len(originBlocks))
	for _, name := range originBlocks {
		fromOrigin[name] = true
	}
	d := &Device{
		link:         link{svc: s, region: region},
		prefetch:     s.cfg.PrefetchLinks,
		loadLatency:  s.cfg.Obs.Histogram("speedkit.device.load_latency_us"),
		blockLatency: s.cfg.Obs.Histogram("speedkit.device.block_latency_us"),
	}
	// The link is the proxy's clock and both of its channels.
	d.Proxy = proxy.NewSplit(proxy.Config{
		User:          u,
		Delta:         s.SketchMaxAge(),
		Clock:         &d.link,
		Auditor:       s.auditor,
		Consent:       s.consent,
		OriginBlocks:  fromOrigin,
		DisableSketch: s.cfg.DisableSketchOnDevices,
		Obs:           s.cfg.Obs,
		Tracer:        s.cfg.Tracer,
		SLO:           s.cfg.SLO,
		Resilience:    res,
	}, &d.link, &d.link)
	return d
}

// Load runs one page load and reports as its Latency the time the
// simulator models for it: the network time of the load's calls and
// backoff, plus one sampled device latency for a shell the device served
// and one for assembling a page with blocks. Drawing those after the load
// keeps the network RNG's order for a device that fetches no blocks from
// the origin. A load neither offline nor degraded is followed by a
// prefetch of the page's links, whose time belongs to no load.
func (d *Device) Load(ctx context.Context, path string) (proxy.PageLoad, error) {
	d.link.spent, d.link.blocks = 0, 0
	res, err := d.Proxy.Load(ctx, path)
	if err != nil {
		return res, err
	}
	net := d.link.svc.cfg.Network
	if res.Source == proxy.SourceDevice {
		d.link.spent += net.DeviceLatency()
	}
	if res.BlocksPersonalized > 0 {
		assembly := net.DeviceLatency()
		d.link.spent += assembly
		d.blockLatency.ObserveDuration(d.link.blocks + assembly)
	}
	res.Latency = d.link.spent
	d.loadLatency.ObserveDuration(res.Latency)
	if !res.Offline && res.Degraded == proxy.DegradeNone {
		d.Proxy.Prefetch(ctx, path, d.prefetch)
	}
	return res, nil
}

// link is a Device's side of the simulator: its clock, and its two
// channels to the service, called through its region's PoP. After each
// answer it draws the time the simulator models for it from the answer's
// shape and records it as the server's calls record theirs (observe). No
// body draws from the network, so drawing after the call keeps the
// network RNG's order.
type link struct {
	svc    *Service
	region netsim.Region
	// spent is the modelled time of the current load; blocks is the part
	// of it spent on the first-party channel.
	spent, blocks time.Duration
}

// Now is the service's time: a load does not advance it, and every
// coherence decision the device takes reads the shared clock.
func (l *link) Now() time.Time { return l.svc.cfg.Clock.Now() }

// Sleep accounts a backoff delay as modelled time instead of blocking
// (clock.Sleeper).
func (l *link) Sleep(d time.Duration) { l.spent += d }

// revalidationHeaderBytes approximates the wire size of a 304-style
// response: status line and caching headers, no body.
const revalidationHeaderBytes = 256

// toEdge draws one exchange of size bytes between the device and its PoP.
func (l *link) toEdge(size int) time.Duration {
	return l.svc.cfg.Network.Latency(netsim.ClientNode(l.region), netsim.EdgeNode(l.region), size)
}

// edgeToOrigin draws one exchange of size bytes between the PoP and the
// origin.
func (l *link) edgeToOrigin(size int) time.Duration {
	return l.svc.cfg.Network.Latency(netsim.EdgeNode(l.region), netsim.OriginNode, size)
}

// spend adds an answer's modelled time d to the load and records it.
func (l *link) spend(ctx context.Context, span string, src proxy.Source, d time.Duration, fetched bool) {
	l.spent += d
	l.svc.observe(ctx, span, src, d, fetched)
}

func (l *link) FetchSketch(ctx context.Context) (*cachesketch.Snapshot, error) {
	sn, size, spike, err := l.svc.sketchSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	l.spend(ctx, "core.sketch", proxy.SourceCDN, l.toEdge(size)+spike, false)
	return sn, nil
}

func (l *link) Fetch(ctx context.Context, path string) (cache.Entry, proxy.Source, error) {
	e, src, spike, err := l.svc.page(ctx, l.svc.cdnNet.Edge(l.region), path)
	if err != nil {
		return e, src, err
	}
	d := l.toEdge(len(e.Body))
	if src == proxy.SourceOrigin {
		d += l.edgeToOrigin(len(e.Body)) + l.svc.renderJitter()
	}
	l.spend(ctx, "core.fetch", src, d+spike, true)
	return e, src, nil
}

func (l *link) Revalidate(ctx context.Context, path string, knownVersion uint64) (proxy.RevalidationResult, error) {
	rr, spike, err := l.svc.revalidate(ctx, l.svc.cdnNet.Edge(l.region), path, knownVersion)
	if err != nil {
		return rr, err
	}
	var d time.Duration
	switch {
	case rr.Source == proxy.SourceCDN:
		d = l.toEdge(len(rr.Entry.Body))
	case rr.NotModified:
		d = l.toEdge(revalidationHeaderBytes) + l.edgeToOrigin(revalidationHeaderBytes)
	default:
		d = l.toEdge(len(rr.Entry.Body)) + l.edgeToOrigin(len(rr.Entry.Body)) + l.svc.renderJitter()
	}
	l.spend(ctx, "core.revalidate", rr.Source, d+spike, rendered(rr))
	return rr, nil
}

func (l *link) FetchBlocks(ctx context.Context, names []string, u *session.User) ([][]byte, error) {
	frs, spike, err := l.svc.blocks(ctx, names, u)
	if err != nil {
		return nil, err
	}
	size := 0
	for _, fr := range frs {
		size += len(fr)
	}
	d := l.svc.cfg.Network.Latency(netsim.ClientNode(l.region), netsim.OriginNode, size) + l.svc.renderJitter()/2 + spike
	l.spend(ctx, "core.blocks", proxy.SourceOrigin, d, false)
	l.blocks += d
	return frs, nil
}
