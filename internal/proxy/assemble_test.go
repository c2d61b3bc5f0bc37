package proxy

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/clock"
	"speedkit/internal/origin"
	"speedkit/internal/session"
	"speedkit/internal/storage"
	"speedkit/internal/workload"
)

// TestPersonalizeAssembly pins what a load does to the shell's
// placeholders. Each row loads repeatedly: the fragment that holds a
// placeholder came out two ways when assembly followed map order, and
// the page buffer is reused from one load to the next. The origin renders
// blocks o, short and over; its answer drops short's fragment and adds
// one after over's, and an answer that is not one fragment per name
// degrades the load to local fragments for every origin block.
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
		{"fragment longer than the reserve", ph("long") + ph("long"), []string{"long"}, strings.Repeat("L", 200), 1},
		{"blocks named, none in the shell", "<p>static</p>", []string{"a"}, "<p>static</p>", 0},
		{"no blocks", "<p>static " + ph("a") + "</p>", nil, "<p>static " + ph("a") + "</p>", 0},
		{"origin block", "1" + ph("o") + "2" + ph("o") + ph("a"), []string{"a", "o"}, "1<o>2<o>A", 2},
		{"short answer from the origin", ph("o") + ph("short") + ph("a"), []string{"a", "o", "short"}, "osA", 3},
		{"long answer from the origin", ph("over") + ph("o"), []string{"over", "o"}, "vo", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, tr, _ := newTestProxy(t, loggedInUser())
			p.cfg.LocalBlocks = map[string]origin.BlockAppender{
				"a":     func(dst []byte, _ *session.User) []byte { return append(dst, 'A') },
				"b":     func(dst []byte, _ *session.User) []byte { return append(dst, ph("a")...) },
				"long":  func(dst []byte, _ *session.User) []byte { return append(dst, strings.Repeat("L", 100)...) },
				"o":     func(dst []byte, _ *session.User) []byte { return append(dst, 'o') },
				"short": func(dst []byte, _ *session.User) []byte { return append(dst, 's') },
				"over":  func(dst []byte, _ *session.User) []byte { return append(dst, 'v') },
			}
			p.cfg.OriginBlocks = map[string]bool{"o": true, "short": true, "over": true}
			broken := false
			p.first = firstPartyFunc(func(names []string) ([][]byte, error) {
				var frs [][]byte
				broken = false
				for _, name := range names {
					switch name {
					case "short":
						broken = true
					case "over":
						broken = true
						frs = append(frs, []byte("<over>"), []byte("<extra>"))
					default:
						frs = append(frs, []byte("<"+name+">"))
					}
				}
				return frs, nil
			})
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
				if degraded := res.Degraded == DegradeBlocksLocal; degraded != broken {
					t.Fatalf("load %d: degraded %q after an answer whose length was wrong: %v", i, res.Degraded, broken)
				}
				if c.filled == 0 && &res.Body[0] != &shell[0] {
					t.Fatalf("load %d: a shell with nothing to fill was copied", i)
				}
			}
			if string(shell) != c.shell {
				t.Fatalf("the held shell changed to %q", shell)
			}
		})
	}
}

// TestPersonalizeAllocations pins what filling a storefront product shell
// (cart, reco and tier blocks) costs a logged-in device that takes reco
// from the origin: nothing once its page buffer and name list have been
// sized, and on a fresh device the buffer, plus the name list the first
// time it sends origin blocks out. A device that renders every block
// itself allocates only the buffer.
func TestPersonalizeAllocations(t *testing.T) {
	entry := productShell(t)
	u := loggedInUser()
	u.AddToCart("p00001", 2)
	for i := 0; i < 6; i++ {
		u.RecordView(workload.ProductID(i))
	}
	reco := [][]byte{origin.RecommendationsBlock(u)}
	for _, c := range []struct {
		name         string
		originBlocks map[string]bool
		fresh        float64
	}{
		{"origin reco", map[string]bool{"reco": true}, 2},
		{"every block local", nil, 1},
	} {
		first := &cannedBlocks{frs: reco}
		p := NewSplit(Config{User: u, OriginBlocks: c.originBlocks}, &fakeTransport{}, first)
		ctx := context.Background()
		var res PageLoad
		personalize := func() {
			if _, n, err := p.personalize(ctx, entry, &res, nil); err != nil || n != 3 {
				t.Fatalf("%s: filled %d blocks, err %v; want 3", c.name, n, err)
			}
		}
		if n := testing.AllocsPerRun(100, func() {
			p.page, p.names = nil, nil
			personalize()
		}); n != c.fresh && !raceEnabled() {
			t.Errorf("%s: a fresh device's first assembly allocates %.0f, want %.0f", c.name, n, c.fresh)
		}
		if n := testing.AllocsPerRun(100, personalize); n != 0 {
			t.Errorf("%s: a repeat assembly allocates %.0f, want 0", c.name, n)
		}
		if len(c.originBlocks) > 0 && first.calls == 0 {
			t.Errorf("%s: no origin blocks were fetched", c.name)
		}
	}
}

// cannedBlocks is a FirstParty that answers every fetch with one list and
// allocates nothing.
type cannedBlocks struct {
	frs   [][]byte
	calls int
}

func (c *cannedBlocks) FetchBlocks(context.Context, []string, *session.User) ([][]byte, error) {
	c.calls++
	return c.frs, nil
}

// productShell is a storefront product page as a device holds it.
func productShell(t testing.TB) cache.Entry {
	t.Helper()
	docs := storage.NewDocumentStore(clock.System)
	if err := workload.SeedCatalog(docs, 1, 10); err != nil {
		t.Fatal(err)
	}
	srv := origin.NewServer(docs, clock.System)
	t.Cleanup(srv.Close)
	srv.RegisterProducts("/product/", "products", "cart", "reco", "tier")
	page, err := srv.Render("/product/" + workload.ProductID(3))
	if err != nil {
		t.Fatal(err)
	}
	e := cache.TTLEntry(clock.System, page.Path, page.Body, page.Version, time.Hour)
	e.Metadata = EntryMetadata(page.Blocks, page.Links)
	return e
}

// FuzzPersonalize holds the one-pass fill to the assembly it replaced
// (oldPersonalize), on any shell bytes and block list: the same page and
// the same count of blocks filled, and no panic. Bit i of originBits
// sends the i-th listed name to the origin; every third name has no local
// renderer; fragments spell placeholders of their own, which must go in
// unscanned. The origin's answer holds extra fragments more than one per
// name (fewer when negative); one of any other length than the names is
// a failed fetch to the oracle.
func FuzzPersonalize(f *testing.F) {
	ph := origin.BlockPlaceholder
	for _, s := range []struct {
		shell, list string
	}{
		{"<p>" + ph("cart") + ph("reco") + ph("tier") + "</p>", "cart,reco,tier"},
		{ph("a") + ph("a") + ph("b") + ph("a"), "a,b"},
		{"x" + origin.BlockPrefix + "a", "a"},
		{ph("a") + origin.BlockPrefix + "a-", "a"},
		{ph("a") + "<!--blo", "a"},
		{origin.BlockPrefix + "x " + ph("a") + ph("x "+origin.BlockPrefix+"a"), "a"},
		{origin.BlockPrefix + "x " + ph("a"), "x " + origin.BlockPrefix + "a,a"},
		{ph("") + ph("b") + ph("c"), "a,,b,"},
		{ph("a") + ph("c"), "a"},
		{strings.Repeat(ph("n"), 10) + ph("m"), "m,n"},
	} {
		f.Add([]byte(s.shell), s.list, uint64(0b010), false, int8(0), true)
		f.Add([]byte(s.shell), s.list, uint64(0b111), true, int8(0), true)
		f.Add([]byte(s.shell), s.list, uint64(0b101), false, int8(0), false)
		f.Add([]byte(s.shell), s.list, uint64(0b011), false, int8(-1), true)
		f.Add([]byte(s.shell), s.list, uint64(0b110), false, int8(1), true)
	}
	f.Fuzz(func(t *testing.T, shell []byte, list string, originBits uint64, fail bool, extra int8, consent bool) {
		u := &session.User{ID: "u1", Name: "Ada", LoggedIn: true, ConsentPersonalization: consent}
		originBlocks := map[string]bool{}
		local := map[string]origin.BlockAppender{}
		oldLocal := map[string]origin.BlockRenderer{}
		if list != "" {
			for i, name := range strings.Split(list, ",") {
				if i < 64 && originBits&(1<<i) != 0 {
					originBlocks[name] = true
				}
				if i%3 == 2 {
					continue
				}
				frag := "L(" + name + origin.BlockPlaceholder(name) + ")"
				local[name] = func(dst []byte, _ *session.User) []byte { return append(dst, frag...) }
				oldLocal[name] = func(*session.User) []byte { return []byte(frag) }
			}
		}
		fetch := func(names []string) ([][]byte, error) {
			if fail {
				return nil, errors.New("blocks down")
			}
			frs := make([][]byte, max(len(names)+int(extra), 0))
			for i := range frs {
				n := "extra"
				if i < len(names) {
					n = names[i]
				}
				frs[i] = []byte("O(" + origin.BlockPlaceholder(n) + ")")
			}
			return frs, nil
		}
		tr := &fakeTransport{}
		p := NewSplit(Config{User: u, OriginBlocks: originBlocks, LocalBlocks: local}, tr, firstPartyFunc(fetch))
		held := append([]byte(nil), shell...)
		e := cache.Entry{Body: held}
		if list != "" {
			e.Metadata = map[string]string{"blocks": list}
		}
		var res PageLoad
		got, n, err := p.personalize(context.Background(), e, &res, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantN := oldPersonalize(shell, list,
			func(name string) bool { return originBlocks[name] && consent },
			func(names []string) (map[string][]byte, bool) {
				frs, err := fetch(names)
				if err != nil || len(frs) != len(names) {
					return nil, false
				}
				return fragmentMap(names, frs), true
			},
			func(name string) ([]byte, bool) {
				r := oldLocal[name]
				if r == nil {
					return nil, false
				}
				return r(u), true
			})
		if !bytes.Equal(got, want) || n != wantN {
			t.Fatalf("shell %q, blocks %q:\n got %q, %d filled\nwant %q, %d filled", shell, list, got, n, want, wantN)
		}
		if !bytes.Equal(held, shell) {
			t.Fatalf("the shell changed to %q", held)
		}
	})
}

// firstPartyFunc adapts a function to FirstParty.
type firstPartyFunc func(names []string) ([][]byte, error)

func (f firstPartyFunc) FetchBlocks(_ context.Context, names []string, _ *session.User) ([][]byte, error) {
	return f(names)
}

// fragmentMap keys a blocks answer, one fragment per name, by name: the
// shape oldPersonalize takes.
func fragmentMap(names []string, frs [][]byte) map[string][]byte {
	m := make(map[string][]byte, len(names))
	for i, name := range names {
		m[name] = frs[i]
	}
	return m
}

// oldPersonalize is the assembly a load ran before the device filled a
// page in one pass, kept as the oracle the fill is held to. It splits the
// shell's block list; takes each name's fragment from fetch, one batch of
// every name origin claims, or from local (false for a name without a
// renderer, which fills with nothing), falling back to local for the
// whole batch when fetch fails; then fills the shell from that map
// (oldAssemble).
func oldPersonalize(shell []byte, list string, origin func(string) bool,
	fetch func([]string) (map[string][]byte, bool), local func(string) ([]byte, bool)) ([]byte, int) {
	if list == "" {
		return shell, 0
	}
	names := strings.Split(list, ",")
	var originNames []string
	fragments := make(map[string][]byte, len(names))
	renderLocal := func(name string) {
		fr, ok := local(name)
		if !ok {
			fragments[name] = nil
			return
		}
		fragments[name] = fr
	}
	for _, name := range names {
		if origin(name) {
			originNames = append(originNames, name)
			continue
		}
		renderLocal(name)
	}
	if len(originNames) > 0 {
		frs, ok := fetch(originNames)
		if !ok {
			frs = nil
			for _, name := range originNames {
				renderLocal(name)
			}
		}
		for name, fr := range frs {
			fragments[name] = fr
		}
	}
	return oldAssemble(shell, fragments)
}

// oldAssemble replaces every placeholder in shell whose block has an
// entry in fragments (a nil fragment fills it with nothing) and counts
// the distinct blocks it filled, in one scan and one exactly-sized page.
func oldAssemble(shell []byte, fragments map[string][]byte) ([]byte, int) {
	type placeholder struct {
		start, end int
		frag       []byte
	}
	var found []placeholder
	size, count := len(shell), 0
	seen := func(name []byte) bool {
		for _, ph := range found {
			if bytes.Equal(shell[ph.start+len(blockPrefix):ph.end-len(blockSuffix)], name) {
				return true
			}
		}
		return false
	}
	for i := 0; ; {
		j := bytes.Index(shell[i:], blockPrefix)
		if j < 0 {
			break
		}
		nameAt := i + j + len(blockPrefix)
		k := bytes.Index(shell[nameAt:], blockSuffix)
		if k < 0 {
			break
		}
		name := shell[nameAt : nameAt+k]
		frag, ok := fragments[string(name)]
		if !ok {
			if l := bytes.LastIndex(name, blockPrefix); l >= 0 {
				i = nameAt + l
			} else {
				i = nameAt + k + len(blockSuffix)
			}
			continue
		}
		ph := placeholder{start: i + j, end: nameAt + k + len(blockSuffix), frag: frag}
		if !seen(name) {
			count++
		}
		found = append(found, ph)
		size += len(frag) - (ph.end - ph.start)
		i = ph.end
	}
	if len(found) == 0 {
		return shell, 0
	}
	out := make([]byte, 0, size)
	prev := 0
	for _, ph := range found {
		out = append(out, shell[prev:ph.start]...)
		out = append(out, ph.frag...)
		prev = ph.end
	}
	return append(out, shell[prev:]...), count
}
