package core

import (
	"bytes"
	"fmt"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/gdpr"
	"speedkit/internal/netsim"
	"speedkit/internal/origin"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

// This file implements the two comparison systems the paper's evaluation
// is framed against:
//
//   - LoadDirect: no caching at all — every page load is a full origin
//     round trip ("without Speed Kit" in the field study).
//   - LoadLegacy: a traditional personalizing CDN — pages are rendered
//     per user at the origin, cached at the edge under a per-user key
//     with a fixed TTL, and the user's identifying context (cookie) is
//     sent to the shared CDN on every request. This baseline exhibits
//     both failure modes Speed Kit addresses: PII crosses the CDN
//     boundary, and staleness is bounded only by the TTL.

// BaselineResult is the outcome of one baseline page load.
type BaselineResult struct {
	Path    string
	Body    []byte
	Version uint64
	Latency time.Duration
	Source  proxy.Source
}

// LoadDirect serves the personalized page straight from the origin with
// no caching tier at all.
func (s *Service) LoadDirect(u *session.User, region netsim.Region, path string) (BaselineResult, error) {
	page, err := s.origin.Render(path)
	if err != nil {
		return BaselineResult{}, err
	}
	body := s.personalizeServerSide(page, u)
	lat := s.cfg.Network.Latency(netsim.ClientNode(region), netsim.OriginNode, len(body)) +
		s.renderJitter()
	if s.auditor != nil && u != nil && u.LoggedIn {
		s.auditor.RecordFlow(gdpr.BoundaryOrigin, []string{"path", "user_id", "cart"})
	}
	return BaselineResult{
		Path: path, Body: body, Version: page.Version,
		Latency: lat, Source: proxy.SourceOrigin,
	}, nil
}

// LegacyTTL is the fixed TTL the personalizing-CDN baseline caches under.
const LegacyTTL = 60 * time.Second

// legacyKey builds the per-user cache key a personalizing CDN must use:
// identity and cart state become part of the key, which is exactly why
// its hit ratio collapses for logged-in traffic.
func legacyKey(u *session.User, path string) string {
	if u == nil || !u.LoggedIn {
		return path + "|anon"
	}
	return fmt.Sprintf("%s|user=%s|cart=%d", path, u.ID, u.CartSize())
}

// LoadLegacy serves the page through a traditional personalizing CDN.
func (s *Service) LoadLegacy(u *session.User, region netsim.Region, path string) (BaselineResult, error) {
	// The request to the shared CDN carries the user's cookie context —
	// the compliance violation the auditor measures for Table 3.
	if s.auditor != nil {
		fields := []string{"path"}
		if u != nil && u.LoggedIn {
			fields = append(fields, "user_id", "cart")
		}
		s.auditor.RecordFlow(gdpr.BoundaryCDN, fields)
	}

	key := legacyKey(u, path)
	edge := s.cdnNet.Edge(region)
	if edge != nil {
		// Its copies belong to no sketch: epoch 0.
		if e, ok := edge.Lookup(key, 0); ok {
			lat := s.cfg.Network.Latency(netsim.ClientNode(region), netsim.EdgeNode(region), len(e.Body))
			return BaselineResult{Path: path, Body: e.Body, Version: e.Version,
				Latency: lat, Source: proxy.SourceCDN}, nil
		}
	}

	page, err := s.origin.Render(path)
	if err != nil {
		return BaselineResult{}, err
	}
	body := s.personalizeServerSide(page, u)
	entry := cache.TTLEntry(s.cfg.Clock, key, body, page.Version, LegacyTTL)
	if edge != nil {
		// The personalized body lands on the shared edge on purpose: this
		// is the Table 3 counterexample the auditor quantifies above.
		//lint:ignore piiflow legacy baseline deliberately caches personalized bodies on the shared CDN
		edge.Fill(entry)
	}
	lat := s.cfg.Network.Latency(netsim.ClientNode(region), netsim.EdgeNode(region), len(body)) +
		s.cfg.Network.Latency(netsim.EdgeNode(region), netsim.OriginNode, len(body)) +
		s.renderJitter()
	return BaselineResult{Path: path, Body: body, Version: page.Version,
		Latency: lat, Source: proxy.SourceOrigin}, nil
}

// personalizeServerSide fills dynamic blocks at the origin — the legacy
// rendering model where personalization happens before the response
// leaves the server.
func (s *Service) personalizeServerSide(page origin.Page, u *session.User) []byte {
	body := page.Body
	for _, name := range page.Blocks {
		fr := s.origin.RenderBlock(name, u)
		ph := []byte(origin.BlockPlaceholder(name))
		body = bytes.ReplaceAll(body, ph, fr)
	}
	return body
}
