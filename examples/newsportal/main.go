// News portal: a custom (non-storefront) deployment built from the
// public API's lower-level pieces — your own collections, pages, and
// continuous queries. Breaking-news articles update every few seconds, so
// the portal runs a tight Δ = 5 s; the example shows cached section pages
// reacting to a breaking update within that bound while archive pages
// stay cheaply cacheable.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"speedkit"
	"speedkit/internal/clock"
)

func main() {
	clk := clock.NewSimulated(time.Time{})

	docs := speedkit.NewDocumentStore()
	seedArticles(docs)

	org := speedkit.NewOrigin(docs)
	defer org.Close()
	org.RegisterProducts("/article/", "articles")
	for _, section := range []string{"politics", "sports", "tech"} {
		q, err := speedkit.ParseQuery(fmt.Sprintf(
			`articles WHERE section = %q AND published = true ORDER BY rank DESC LIMIT 10`, section))
		if err != nil {
			log.Fatal(err)
		}
		org.RegisterQueryPage("/section/"+section, "Section: "+section, q)
	}
	breaking, _ := speedkit.ParseQuery(`articles WHERE breaking = true ORDER BY rank DESC LIMIT 5`)
	org.RegisterQueryPage("/breaking", "Breaking news", breaking)

	svc := speedkit.NewService(speedkit.ServiceConfig{
		Clock: clk,
		Delta: 5 * time.Second, // news demands a tight staleness bound
		Seed:  11,
	}, docs, org)
	defer svc.Close()

	reader := svc.NewDevice(nil, speedkit.RegionEU) // anonymous reader

	fmt.Println("== reader opens the breaking-news page")
	page, err := reader.Load(context.Background(), "/breaking")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s, %v, version %d\n", page.Source, page.Latency.Round(time.Millisecond), page.Version)

	fmt.Println("== a story breaks: article a3 is flagged breaking")
	if err := docs.Patch("articles", "a3", map[string]any{"breaking": true, "rank": int64(99)}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   /breaking invalidation-tracked: %v\n", svc.Kernel().Contains("/breaking"))

	fmt.Println("== 6 seconds later (past Δ) the reader reloads")
	clk.Advance(6 * time.Second)
	page, err = reader.Load(context.Background(), "/breaking")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s, version %d, revalidated=%v\n", page.Source, page.Version, page.Revalidated)
	fmt.Printf("   story visible: %v\n", contains(page.Body, "Quantum breakthrough"))

	fmt.Println("== archive reads stay cached: two loads of /article/a1")
	p1, _ := reader.Load(context.Background(), "/article/a1")
	p2, _ := reader.Load(context.Background(), "/article/a1")
	fmt.Printf("   first: %s %v, second: %s %v\n",
		p1.Source, p1.Latency.Round(time.Millisecond), p2.Source, p2.Latency.Round(time.Millisecond))

	stale := svc.VersionLog().Staleness("/breaking", page.Version, clk.Now())
	fmt.Printf("\nmax observed staleness on /breaking: %v (Δ = 5s)\n", stale)
}

func seedArticles(docs *speedkit.DocumentStore) {
	articles := []struct {
		id, title, section string
		rank               int64
		breaking           bool
	}{
		{"a1", "Budget passes", "politics", 10, false},
		{"a2", "Cup final tonight", "sports", 20, false},
		{"a3", "Quantum breakthrough", "tech", 30, false},
		{"a4", "Transfer rumours", "sports", 15, false},
		{"a5", "Election preview", "politics", 25, false},
	}
	for _, a := range articles {
		err := docs.Insert("articles", a.id, map[string]any{
			"title": a.title, "section": a.section, "rank": a.rank,
			"breaking": a.breaking, "published": true,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
}

func contains(body []byte, s string) bool {
	return len(body) > 0 && string(body) != "" && indexOf(body, s) >= 0
}

func indexOf(body []byte, s string) int {
	b := string(body)
	for i := 0; i+len(s) <= len(b); i++ {
		if b[i:i+len(s)] == s {
			return i
		}
	}
	return -1
}
