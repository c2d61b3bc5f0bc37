package speedkit_test

import (
	"context"
	"fmt"
	"log"

	"speedkit"
)

// Example shows the complete lifecycle: boot a deployment, load a page
// through a device (cold, then from the device cache), and drive the
// invalidation pipeline with a write.
func Example() {
	svc, err := speedkit.New(speedkit.WithProducts(100))
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	user := speedkit.NewUsers(1, 1)[0]
	device := svc.NewDevice(user, speedkit.RegionEU)

	page, _ := device.Load(context.Background(), "/product/p00042")
	fmt.Println("first load served by:", page.Source)

	page, _ = device.Load(context.Background(), "/product/p00042")
	fmt.Println("second load served by:", page.Source)

	_ = svc.Docs().Patch("products", "p00042", map[string]any{"price": 1.99})
	fmt.Println("tracked as potentially stale:", svc.SketchServer().Contains("/product/p00042"))

	// Output:
	// first load served by: origin
	// second load served by: device
	// tracked as potentially stale: true
}

// ExampleParseQuery demonstrates the query syntax used for listing pages
// and continuous invalidation queries.
func ExampleParseQuery() {
	q, err := speedkit.ParseQuery(`products WHERE category = "shoes" AND price < 100 ORDER BY price LIMIT 24`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q.Match(speedkit.NewDoc("p1", map[string]any{"category": "shoes", "price": 59.0})))
	fmt.Println(q.Match(speedkit.NewDoc("p2", map[string]any{"category": "shoes", "price": 159.0})))
	// Output:
	// true
	// false
}

// ExampleNewService builds a custom (non-storefront) deployment from the
// lower-level pieces.
func ExampleNewService() {
	docs := speedkit.NewDocumentStore()
	_ = docs.Insert("articles", "a1", map[string]any{"title": "Hello", "section": "news"})

	org := speedkit.NewOrigin(docs)
	defer org.Close()
	org.RegisterProducts("/article/", "articles")
	q, _ := speedkit.ParseQuery(`articles WHERE section = "news"`)
	org.RegisterQueryPage("/news", "News", q)

	svc := speedkit.NewService(speedkit.ServiceConfig{Seed: 1}, docs, org)
	defer svc.Close()

	device := svc.NewDevice(nil, speedkit.RegionUS)
	page, _ := device.Load(context.Background(), "/news")
	fmt.Println("loaded /news, version", page.Version)
	// Output:
	// loaded /news, version 1
}
