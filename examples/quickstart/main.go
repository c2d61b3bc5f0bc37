// Quickstart: boot a Speed Kit deployment, load a page three times, and
// watch it climb the cache tiers — origin on the cold load, the device's
// own service-worker cache on repeats, and the CDN edge for a second
// device in the same region.
package main

import (
	"context"
	"fmt"
	"log"

	"speedkit"
)

func main() {
	svc, err := speedkit.New(speedkit.WithProducts(100))
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	users := speedkit.NewUsers(1, 2)
	alice := svc.NewDevice(users[0], speedkit.RegionEU)
	bob := svc.NewDevice(users[1], speedkit.RegionEU)

	const path = "/product/p00042"
	fmt.Println("three loads of", path)

	for i, dev := range []*speedkit.Device{alice, alice, bob} {
		page, err := dev.Load(context.Background(), path)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  load %d: served by %-7s in %8v (version %d, %d personalized blocks)\n",
			i+1, page.Source, page.Latency.Round(0), page.Version, page.BlocksPersonalized)
	}

	fmt.Println("\nnow a price write invalidates every cached copy:")
	if err := svc.Docs().Patch("products", "p00042", map[string]any{"price": 1.99}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  sketch tracks %s: %v\n", path, svc.Kernel().Contains(path))
	fmt.Printf("  (devices revalidate within Δ = %v — no read is ever staler)\n", svc.Delta())
}
