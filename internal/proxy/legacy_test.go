package proxy

import (
	"context"
	"testing"
	"time"

	"speedkit/internal/netsim"
	"speedkit/internal/session"
)

// preSplit is a pre-split Transport that is not a Joined, as a wrapper
// that traces a Joined's calls is: New gives it the regioned adapter.
type preSplit struct{ *Joined }

// TestNewOverJoinedIsSplit: a proxy New builds over a Joined calls the
// Joined's halves directly, as one NewSplit builds over them.
func TestNewOverJoinedIsSplit(t *testing.T) {
	_, tr, _ := newTestProxy(t, loggedInUser())
	p := New(Config{Region: netsim.EU}, &Joined{Shared: tr, First: tr})
	if p.shared != Shared(tr) || p.first != FirstParty(tr) {
		t.Fatalf("New over a Joined talks to %T and %T, want the Joined's halves", p.shared, p.first)
	}
	if _, ok := New(Config{}, preSplit{&Joined{Shared: tr, First: tr}}).first.(*regioned); !ok {
		t.Fatal("New over a foreign Transport has no regioned adapter")
	}
}

// legacyBlocks answers every blocks fetch with the fragments of m, keyed
// by name.
type legacyBlocks struct {
	preSplit
	m map[string][]byte
}

func (l legacyBlocks) FetchBlocks(context.Context, netsim.Region, []string, *session.User) (map[string][]byte, time.Duration, error) {
	return l.m, 0, nil
}

// TestRegionedListsTheLegacyMap: the regioned adapter lists a legacy
// map's fragments in request order, and a map that lacks a name asked
// for degrades the load as a failed fetch does: local fragments for
// every origin block.
func TestRegionedListsTheLegacyMap(t *testing.T) {
	for _, c := range []struct {
		name     string
		m        map[string][]byte
		want     string
		degraded DegradeReason
	}{
		{"every name", map[string][]byte{"greeting": []byte("<G>"), "cart": []byte("<C>")}, "<html>shell <G><C></html>", DegradeNone},
		{"a name missing", map[string][]byte{"cart": []byte("<C>")}, "<html>shell <p>Welcome back, Ada!</p>", DegradeBlocksLocal},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, tr, _ := newTestProxy(t, loggedInUser())
			p := New(Config{
				User:         loggedInUser(),
				Delta:        30 * time.Second,
				Region:       netsim.EU,
				OriginBlocks: map[string]bool{"greeting": true, "cart": true},
			}, legacyBlocks{preSplit{&Joined{Shared: tr, First: tr}}, c.m})
			res, err := p.Load(context.Background(), "/")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Body) < len(c.want) || string(res.Body[:len(c.want)]) != c.want || res.Degraded != c.degraded {
				t.Fatalf("page %q, degraded %q; want it to start %q, degraded %q", res.Body, res.Degraded, c.want, c.degraded)
			}
			if res.BlocksPersonalized != 2 {
				t.Fatalf("%d blocks filled, want 2", res.BlocksPersonalized)
			}
		})
	}
}
