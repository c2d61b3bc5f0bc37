// Command speedkit-client is the device side of the HTTP deployment: it
// runs the full client proxy (sketch discipline, device cache, on-device
// personalization, offline fallback) against a speedkit-server instance
// and prints what each load cost and where it was served from.
//
//	speedkit-server -addr :8080 &
//	speedkit-client -server http://localhost:8080 -paths /,/product/p00042,/category/shoes -n 3
//	speedkit-client -server http://localhost:8080 -user u000004 -delta 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"speedkit/internal/httpclient"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "speedkit-server base URL")
	paths := flag.String("paths", "/,/product/p00042,/category/shoes", "comma-separated paths to load")
	n := flag.Int("n", 2, "rounds over the path list")
	userID := flag.String("user", "", "user ID for personalization (empty = anonymous)")
	delta := flag.Duration("delta", 30*time.Second, "staleness bound Δ")
	verbose := flag.Bool("v", false, "print page bodies")
	flag.Parse()

	var u *session.User
	if *userID != "" {
		// A device knows its own user; the ID must match a server-side
		// registration for origin-rendered blocks, while local blocks
		// (greeting, cart) work from this state alone.
		u = &session.User{ID: *userID, Name: "User " + *userID, LoggedIn: true,
			Tier: "gold", ConsentPersonalization: true}
		u.AddToCart("p00001", 2)
	}

	transport := httpclient.NewDirect(*server, nil)
	dev := proxy.NewSplit(proxy.Config{
		User:  u,
		Delta: *delta,
	}, transport, transport)

	pathList := strings.Split(*paths, ",")
	failures := 0
	for round := 1; round <= *n; round++ {
		fmt.Printf("— round %d —\n", round)
		for _, path := range pathList {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			res, err := dev.Load(context.Background(), path)
			if err != nil {
				fmt.Printf("  %-28s ERROR: %v\n", path, err)
				failures++
				continue
			}
			flags := make([]string, 0, 3)
			if res.SketchRefreshed {
				flags = append(flags, "sketch")
			}
			if res.Revalidated {
				flags = append(flags, "revalidated")
			}
			if res.Offline {
				flags = append(flags, "OFFLINE")
			}
			fmt.Printf("  %-28s %-7s v%-3d %8v  blocks=%d %s\n",
				path, res.Source, res.Version, res.Latency.Round(time.Microsecond),
				res.BlocksPersonalized, strings.Join(flags, ","))
			if *verbose {
				fmt.Printf("    %s\n", res.Body)
			}
		}
	}

	st := dev.Stats()
	fmt.Printf("\nstats: %+v\n", st)
	fmt.Printf("device cache: %+v\n", dev.CacheStats())
	if failures > 0 {
		os.Exit(1)
	}
}
