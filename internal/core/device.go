package core

import (
	"context"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/gdpr"
	"speedkit/internal/metrics"
	"speedkit/internal/netsim"
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
	loadLatency, blockLatency *metrics.Histogram
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
		Delta:         s.cfg.Delta,
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
// channels to the service, called from the device's region.
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

// took adds a call's modelled network time when the call succeeded.
func (l *link) took(lat time.Duration, err error) time.Duration {
	if err != nil {
		return 0
	}
	l.spent += lat
	return lat
}

func (l *link) FetchSketch(ctx context.Context) (*cachesketch.Snapshot, error) {
	sn, lat, err := l.svc.FetchSketch(ctx, l.region)
	l.took(lat, err)
	return sn, err
}

func (l *link) Fetch(ctx context.Context, path string) (cache.Entry, proxy.Source, error) {
	e, lat, src, err := l.svc.Fetch(ctx, l.region, path)
	l.took(lat, err)
	return e, src, err
}

func (l *link) Revalidate(ctx context.Context, path string, knownVersion uint64) (proxy.RevalidationResult, error) {
	rr, lat, err := l.svc.Revalidate(ctx, l.region, path, knownVersion)
	l.took(lat, err)
	return rr, err
}

func (l *link) FetchBlocks(ctx context.Context, names []string, u *session.User) (map[string][]byte, error) {
	frs, lat, err := l.svc.FetchBlocks(ctx, l.region, names, u)
	l.blocks += l.took(lat, err)
	return frs, err
}
