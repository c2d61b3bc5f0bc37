package proxy

import (
	"context"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/netsim"
	"speedkit/internal/session"
)

// This file keeps the device transport's shape from before it split by
// party, for the one caller that still builds devices through it: the
// load harness under cmd/speedkit-load, whose files change only together
// with its benchmark. It is the only file of the package that names
// netsim. Delete it, and Config.Region and Config.Network with it, when
// that harness moves to NewSplit.

// Transport is the pre-split device transport: every call names the
// device's region and reports a duration, and one interface carries both
// the anonymous calls and the personalized one.
type Transport interface {
	FetchSketch(ctx context.Context, region netsim.Region) (*cachesketch.Snapshot, time.Duration, error)
	Fetch(ctx context.Context, region netsim.Region, path string) (cache.Entry, time.Duration, Source, error)
	Revalidate(ctx context.Context, region netsim.Region, path string, knownVersion uint64) (RevalidationResult, error)
	FetchBlocks(ctx context.Context, region netsim.Region, names []string, u *session.User) (map[string][]byte, time.Duration, error)
}

// region and network are Config.Region's and Config.Network's types.
type (
	region  = netsim.Region
	network = *netsim.Network
)

// New creates a proxy over a pre-split Transport. Every call names
// cfg.Region and drops the duration reported; cfg.Network is ignored.
func New(cfg Config, tr Transport) *Proxy {
	// The proxy and its adapter are one allocation, as a NewSplit proxy is.
	lp := &struct {
		Proxy
		regioned
	}{regioned: regioned{tr: tr, region: cfg.Region}}
	lp.Proxy.init(cfg, &lp.regioned, &lp.regioned)
	return &lp.Proxy
}

// regioned is a Transport seen as Shared and FirstParty.
type regioned struct {
	tr     Transport
	region netsim.Region
}

func (r *regioned) FetchSketch(ctx context.Context) (*cachesketch.Snapshot, error) {
	sn, _, err := r.tr.FetchSketch(ctx, r.region)
	return sn, err
}

func (r *regioned) Fetch(ctx context.Context, path string) (cache.Entry, Source, error) {
	e, _, src, err := r.tr.Fetch(ctx, r.region, path)
	return e, src, err
}

func (r *regioned) Revalidate(ctx context.Context, path string, knownVersion uint64) (RevalidationResult, error) {
	return r.tr.Revalidate(ctx, r.region, path, knownVersion)
}

func (r *regioned) FetchBlocks(ctx context.Context, names []string, u *session.User) (map[string][]byte, error) {
	frs, _, err := r.tr.FetchBlocks(ctx, r.region, names, u)
	return frs, err
}

// Joined gives a Shared and a FirstParty the pre-split Transport shape:
// the region is ignored and every duration is zero.
type Joined struct {
	Shared Shared
	First  FirstParty
}

func (j *Joined) FetchSketch(ctx context.Context, _ netsim.Region) (*cachesketch.Snapshot, time.Duration, error) {
	sn, err := j.Shared.FetchSketch(ctx)
	return sn, 0, err
}

func (j *Joined) Fetch(ctx context.Context, _ netsim.Region, path string) (cache.Entry, time.Duration, Source, error) {
	e, src, err := j.Shared.Fetch(ctx, path)
	return e, 0, src, err
}

func (j *Joined) Revalidate(ctx context.Context, _ netsim.Region, path string, knownVersion uint64) (RevalidationResult, error) {
	return j.Shared.Revalidate(ctx, path, knownVersion)
}

func (j *Joined) FetchBlocks(ctx context.Context, _ netsim.Region, names []string, u *session.User) (map[string][]byte, time.Duration, error) {
	frs, err := j.First.FetchBlocks(ctx, names, u)
	return frs, 0, err
}
