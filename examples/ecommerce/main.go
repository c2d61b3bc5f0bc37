// E-commerce walkthrough: a full shopping session on the accelerated
// storefront — browsing with on-device personalization, a concurrent
// price update, and the coherence protocol keeping the session's view
// fresh within Δ while the GDPR auditor confirms no personal data ever
// reached the shared CDN.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"speedkit"
	"speedkit/internal/clock"
)

func main() {
	// A simulated clock lets the walkthrough jump through time.
	clk := clock.NewSimulated(time.Time{})
	svc, err := speedkit.New(
		speedkit.WithProducts(200),
		speedkit.WithClock(clk),
		speedkit.WithDelta(30*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	shopper := speedkit.NewUsers(7, 3)[0] // deterministic logged-in user
	shopper.Name, shopper.LoggedIn, shopper.ConsentPersonalization = "Dana", true, true
	device := svc.NewDevice(shopper, speedkit.RegionUS)

	step := func(format string, args ...any) { fmt.Printf("\n== "+format+"\n", args...) }

	step("Dana opens the home page")
	page := mustLoad(device, "/")
	fmt.Printf("   %s, %v — greeting: %q\n", page.Source, page.Latency.Round(time.Millisecond),
		extract(page.Body, "Welcome"))

	step("browses the shoes category and a product")
	page = mustLoad(device, "/category/shoes")
	fmt.Printf("   %s, %v\n", page.Source, page.Latency.Round(time.Millisecond))
	page = mustLoad(device, "/product/p00010")
	fmt.Printf("   %s, %v (version %d)\n", page.Source, page.Latency.Round(time.Millisecond), page.Version)

	step("adds two pairs to the cart — cart state never leaves the device")
	shopper.AddToCart("p00010", 2)
	page = mustLoad(device, "/product/p00010")
	fmt.Printf("   %s, %v — cart widget: %q\n", page.Source, page.Latency.Round(time.Millisecond),
		extract(page.Body, "items"))

	step("meanwhile, merchandising drops the price")
	if err := svc.Docs().Patch("products", "p00010", map[string]any{"price": 49.99}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   invalidation pipeline: sketch=%v, CDN purged\n",
		svc.Kernel().Contains("/product/p00010"))

	step("within Δ, Dana may still see the cached version (bounded staleness)")
	page = mustLoad(device, "/product/p00010")
	stale := svc.VersionLog().Staleness("/product/p00010", page.Version, clk.Now())
	fmt.Printf("   version %d, staleness %v (bound Δ = %v)\n", page.Version, stale.Round(time.Millisecond), svc.Delta())

	step("Δ passes; the refreshed sketch forces revalidation")
	clk.Advance(31 * time.Second)
	page = mustLoad(device, "/product/p00010")
	fmt.Printf("   version %d, revalidated=%v — new price visible: %v\n",
		page.Version, page.Revalidated, strings.Contains(string(page.Body), "49.99"))

	step("GDPR audit after the whole session")
	fmt.Print(indent(svc.Auditor().String()))
	fmt.Printf("   compliant (zero PII at CDN): %v\n", svc.Auditor().Compliant())
}

func mustLoad(d *speedkit.Device, path string) speedkit.PageLoad {
	page, err := d.Load(context.Background(), path)
	if err != nil {
		log.Fatal(err)
	}
	return page
}

// extract returns the HTML fragment around the first occurrence of marker.
func extract(body []byte, marker string) string {
	s := string(body)
	i := strings.Index(s, marker)
	if i < 0 {
		return "(not found)"
	}
	end := i + len(marker) + 12
	if end > len(s) {
		end = len(s)
	}
	start := i - 8
	if start < 0 {
		start = 0
	}
	return s[start:end]
}

func indent(s string) string {
	return "   " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n   ") + "\n"
}
