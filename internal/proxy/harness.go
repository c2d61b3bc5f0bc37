package proxy

import (
	"context"
	"fmt"
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
// netsim, and the only one where a blocks answer is a map. New over a
// Joined is NewSplit over its two halves; regioned serves only a foreign
// pre-split Transport, such as the one the harness wraps around a Joined
// to trace its calls. TestHarnessNames lists the file's names. Delete the
// file, and Config.Region and Config.Network with it, when that harness
// moves to NewSplit.

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
// Over a Joined, which ignores the region and reports no duration, that
// is NewSplit over its Shared and FirstParty.
func New(cfg Config, tr Transport) *Proxy {
	if j, ok := tr.(*Joined); ok {
		return NewSplit(cfg, j.Shared, j.First)
	}
	// The proxy and its adapter are one allocation, as a NewSplit proxy is.
	r := &regioned{tr: tr}
	r.init(cfg, r, r)
	return &r.Proxy
}

// regioned is a proxy whose Transport it sees as Shared and FirstParty,
// naming the region of the proxy's own Config in each call. It adds one
// interface to the proxy and no more: over 512 B a pointerful object
// carries an 8-byte header, so more would move every such device to a
// larger size class (TestNewAllocations).
type regioned struct {
	Proxy
	tr Transport
}

func (r *regioned) FetchSketch(ctx context.Context) (*cachesketch.Snapshot, error) {
	sn, _, err := r.tr.FetchSketch(ctx, r.cfg.Region)
	return sn, err
}

func (r *regioned) Fetch(ctx context.Context, path string) (cache.Entry, Source, error) {
	e, _, src, err := r.tr.Fetch(ctx, r.cfg.Region, path)
	return e, src, err
}

func (r *regioned) Revalidate(ctx context.Context, path string, knownVersion uint64) (RevalidationResult, error) {
	return r.tr.Revalidate(ctx, r.cfg.Region, path, knownVersion)
}

// FetchBlocks lists the map's fragments in request order. A map that
// lacks a name answers short, so the proxy takes it as a failed fetch.
func (r *regioned) FetchBlocks(ctx context.Context, names []string, u *session.User) ([][]byte, error) {
	m, _, err := r.tr.FetchBlocks(ctx, r.cfg.Region, names, u)
	if err != nil {
		return nil, err
	}
	frs := make([][]byte, 0, len(names))
	for _, name := range names {
		fr, ok := m[name]
		if !ok {
			break
		}
		frs = append(frs, fr)
	}
	return frs, nil
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

// FetchBlocks keys First's fragments by name. An answer that is not one
// fragment per name is an error.
func (j *Joined) FetchBlocks(ctx context.Context, _ netsim.Region, names []string, u *session.User) (map[string][]byte, time.Duration, error) {
	frs, err := j.First.FetchBlocks(ctx, names, u)
	if err != nil {
		return nil, 0, err
	}
	if len(frs) != len(names) {
		return nil, 0, fmt.Errorf("proxy: %d fragments for %d block names", len(frs), len(names))
	}
	m := make(map[string][]byte, len(names))
	for i, name := range names {
		m[name] = frs[i]
	}
	return m, 0, nil
}
