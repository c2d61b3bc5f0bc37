package proxy_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/core"
	"speedkit/internal/origin"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/workload"
)

// TestPersonalizeGolden: every page of the storefront core.NewStorefront
// deploys comes out of a load byte for byte as the assembly before the
// one-pass fill made it (proxy.OldPersonalize), with the same count of
// blocks filled: for a logged-in user, an anonymous visitor and a
// logged-in user without consent, with reco from the origin or rendered
// on the device, and with the origin's blocks answer failing, which
// degrades to the device's renderers. One device loads every page, so its
// page buffer is reused across pages of every size.
func TestPersonalizeGolden(t *testing.T) {
	const products = 1000
	svc, err := core.NewStorefront(core.StorefrontConfig{Products: products})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	org := svc.Origin()
	paths := []string{"/"}
	for _, cat := range workload.Categories {
		paths = append(paths, workload.CategoryPath(cat))
	}
	for i := 0; i < products; i++ {
		paths = append(paths, "/product/"+workload.ProductID(i))
	}

	loggedIn := &session.User{ID: "u1", Name: "Ada", LoggedIn: true, Tier: "gold", ConsentPersonalization: true}
	loggedIn.AddToCart("p00001", 2)
	for i := 0; i < 6; i++ {
		loggedIn.RecordView(workload.ProductID(i))
	}
	noConsent := &session.User{ID: "u2", Name: "Bo", LoggedIn: true, Tier: "silver"}
	noConsent.AddToCart("p00002", 1)
	noConsent.RecordView("p00009")
	anonymous := &session.User{ID: "u3"}
	anonymous.RecordView("p00007")
	oldLocal := map[string]origin.BlockRenderer{
		"greeting": origin.GreetingBlock,
		"cart":     origin.CartBlock,
		"reco":     origin.RecommendationsBlock,
		"tier":     origin.TierPriceBlock,
	}

	for _, who := range []struct {
		name      string
		u         *session.User
		consented bool
	}{{"logged in", loggedIn, true}, {"anonymous", anonymous, false}, {"no consent", noConsent, false}} {
		for _, recoFromOrigin := range []bool{true, false} {
			for _, fail := range []bool{false, true} {
				var originBlocks map[string]bool
				if recoFromOrigin {
					originBlocks = map[string]bool{"reco": true}
				}
				first := &storefrontBlocks{org: org, fail: fail}
				dev := proxy.NewSplit(proxy.Config{User: who.u, OriginBlocks: originBlocks}, storefrontShells{org}, first)
				local := who.u
				if !who.consented {
					local = nil
				}
				for _, path := range paths {
					res, err := dev.Load(context.Background(), path)
					if err != nil {
						t.Fatal(err)
					}
					page, err := org.Render(path)
					if err != nil {
						t.Fatal(err)
					}
					want, wantN := proxy.OldPersonalize(page.Body, proxy.BlocksMetadata(page.Blocks)["blocks"],
						func(name string) bool { return originBlocks[name] && who.consented },
						func(names []string) (map[string][]byte, bool) {
							frs, err := first.FetchBlocks(context.Background(), names, who.u)
							return frs, err == nil
						},
						func(name string) ([]byte, bool) {
							r := oldLocal[name]
							if r == nil {
								return nil, false
							}
							return r(local), true
						})
					if !bytes.Equal(res.Body, want) || res.BlocksPersonalized != wantN {
						t.Fatalf("%s, reco from origin %v, blocks answer failing %v, %s:\n got %q, %d filled\nwant %q, %d filled",
							who.name, recoFromOrigin, fail, path, res.Body, res.BlocksPersonalized, want, wantN)
					}
				}
				if fetched := dev.Stats().BlocksOrigin; recoFromOrigin && who.consented && !fail && fetched == 0 {
					t.Errorf("%s: no block came from the origin", who.name)
				}
			}
		}
	}
}

// storefrontShells is a Shared that fetches each page straight from the
// storefront's origin, as a device holds it. The golden test loads each
// page once per device, so no sketch is ever consulted.
type storefrontShells struct{ org *origin.Server }

func (s storefrontShells) FetchSketch(context.Context) (*cachesketch.Snapshot, error) {
	return nil, proxy.ErrOffline
}

func (s storefrontShells) Fetch(_ context.Context, path string) (cache.Entry, proxy.Source, error) {
	page, err := s.org.Render(path)
	if err != nil {
		return cache.Entry{}, 0, err
	}
	e := cache.TTLEntry(nil, path, page.Body, page.Version, time.Hour)
	e.Metadata = proxy.EntryMetadata(page.Blocks, page.Links)
	return e, proxy.SourceOrigin, nil
}

func (s storefrontShells) Revalidate(ctx context.Context, path string, _ uint64) (proxy.RevalidationResult, error) {
	e, src, err := s.Fetch(ctx, path)
	return proxy.RevalidationResult{Entry: e, Source: src}, err
}

// storefrontBlocks is a FirstParty over the storefront's block renderers
// that fails every fetch when fail is set.
type storefrontBlocks struct {
	org  *origin.Server
	fail bool
}

func (b *storefrontBlocks) FetchBlocks(_ context.Context, names []string, u *session.User) (map[string][]byte, error) {
	if b.fail {
		return nil, proxy.ErrOffline
	}
	frs := make(map[string][]byte, len(names))
	for _, n := range names {
		frs[n] = b.org.RenderBlock(n, u)
	}
	return frs, nil
}
