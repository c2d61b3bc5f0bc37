package core

import (
	"context"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/invalidb"
	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

// This file holds the names kept only for the load harness under
// cmd/speedkit-load, whose files change only together with its
// benchmark. proxy.TestHarnessNames lists them; delete each with its last
// caller there.

// The region forms of the device's calls: each runs one call through a
// fresh link and returns, beside the answer, the time it modelled.

// FetchSketch is link.FetchSketch from a device in region.
func (s *Service) FetchSketch(ctx context.Context, region netsim.Region) (*cachesketch.Snapshot, time.Duration, error) {
	l := link{svc: s, region: region}
	sn, err := l.FetchSketch(ctx)
	return sn, l.spent, err
}

// Fetch is link.Fetch from a device in region.
func (s *Service) Fetch(ctx context.Context, region netsim.Region, path string) (cache.Entry, time.Duration, proxy.Source, error) {
	l := link{svc: s, region: region}
	e, src, err := l.Fetch(ctx, path)
	return e, l.spent, src, err
}

// FetchBlocks is link.FetchBlocks from a device in region, its fragments
// keyed by name.
func (s *Service) FetchBlocks(ctx context.Context, region netsim.Region, names []string, u *session.User) (map[string][]byte, time.Duration, error) {
	l := link{svc: s, region: region}
	frs, err := l.FetchBlocks(ctx, names, u)
	if err != nil {
		return nil, l.spent, err
	}
	m := make(map[string][]byte, len(names))
	for i, name := range names {
		m[name] = frs[i]
	}
	return m, l.spent, nil
}

// Engine returns the matcher of the node NewService built (nil when a
// Kernel was given).
func (s *Service) Engine() *invalidb.Engine {
	if s.node == nil {
		return nil
	}
	return s.node.Engine()
}
