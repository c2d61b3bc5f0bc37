package proxy

import (
	"context"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/origin"
	"speedkit/internal/session"
)

// TestPersonalizeAssembly pins what a load does to the shell's
// placeholders. Each row loads repeatedly: the fragment that holds a
// placeholder came out two ways when assembly followed map order.
func TestPersonalizeAssembly(t *testing.T) {
	ph := origin.BlockPlaceholder
	cases := []struct {
		name   string
		shell  string
		blocks []string
		want   string
		filled int
	}{
		{"repeated placeholder", "1" + ph("a") + "2" + ph("a") + "3", []string{"a"}, "1A2A3", 1},
		{"fragment holding a placeholder", ph("b") + "|" + ph("a"), []string{"a", "b"}, ph("a") + "|A", 2},
		{"unknown block renders empty", "x" + ph("mystery") + "y", []string{"mystery"}, "xy", 1},
		{"placeholder not in the metadata", ph("a") + ph("c"), []string{"a"}, "A" + ph("c"), 1},
		{"unterminated placeholder", ph("a") + origin.BlockPrefix + "a", []string{"a"}, "A" + origin.BlockPrefix + "a", 1},
		{"placeholder inside a non-block name", origin.BlockPrefix + "x " + ph("a"), []string{"a"}, origin.BlockPrefix + "x A", 1},
		{"blocks named, none in the shell", "<p>static</p>", []string{"a"}, "<p>static</p>", 0},
		{"no blocks", "<p>static " + ph("a") + "</p>", nil, "<p>static " + ph("a") + "</p>", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, tr, _ := newTestProxy(t, loggedInUser())
			p.cfg.LocalBlocks = map[string]origin.BlockRenderer{
				"a": func(*session.User) []byte { return []byte("A") },
				"b": func(*session.User) []byte { return []byte(ph("a")) },
			}
			shell := []byte(c.shell)
			e := cache.TTLEntry(tr.clk, "/t", shell, 1, time.Hour)
			e.Metadata = BlocksMetadata(c.blocks)
			tr.pages["/t"] = e
			for i := 0; i < 16; i++ {
				res, err := p.Load(context.Background(), "/t")
				if err != nil {
					t.Fatal(err)
				}
				if string(res.Body) != c.want || res.BlocksPersonalized != c.filled {
					t.Fatalf("load %d: body %q, %d blocks filled; want %q, %d", i, res.Body, res.BlocksPersonalized, c.want, c.filled)
				}
				if c.filled == 0 && &res.Body[0] != &shell[0] {
					t.Fatalf("load %d: a shell with nothing to fill was copied", i)
				}
			}
		})
	}
}

// TestAssembleAllocatesOnce: the assembled page is the only allocation,
// however many placeholders the shell holds.
func TestAssembleAllocatesOnce(t *testing.T) {
	shell := []byte("<html>" + origin.BlockPlaceholder("cart") + "<p>body</p>" +
		origin.BlockPlaceholder("reco") + origin.BlockPlaceholder("tier") + origin.BlockPlaceholder("cart") + "</html>")
	fragments := map[string][]byte{"cart": []byte("3 items"), "reco": nil, "tier": []byte("gold")}
	allocs := testing.AllocsPerRun(100, func() {
		if _, n := assemble(shell, fragments); n != 3 {
			t.Fatalf("filled %d blocks, want 3", n)
		}
	})
	if allocs != 1 {
		t.Fatalf("assemble allocates %v times, want 1", allocs)
	}
}
