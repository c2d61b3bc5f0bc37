package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/query"
)

// at reads one field of a document, nil when it is absent.
func at(d query.Doc, path string) any {
	v, _ := d.Lookup(path)
	return v
}

func newTestDocs() (*DocumentStore, *clock.Simulated) {
	clk := clock.NewSimulated(time.Time{})
	return NewDocumentStore(clk), clk
}

func TestDocInsertGet(t *testing.T) {
	s, _ := newTestDocs()
	if err := s.Insert("products", "p1", map[string]any{"price": 10}); err != nil {
		t.Fatal(err)
	}
	doc, ver, err := s.Get("products", "p1")
	if err != nil || ver != 1 || at(doc, "price") != 10 {
		t.Fatalf("Get = %v v%d err=%v", doc, ver, err)
	}
	if err := s.Insert("products", "p1", nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate insert err = %v", err)
	}
	if _, _, err := s.Get("products", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get err = %v", err)
	}
}

func TestDocUpdateVersions(t *testing.T) {
	s, _ := newTestDocs()
	_ = s.Insert("c", "d", map[string]any{"v": 1})
	if err := s.Update("c", "d", map[string]any{"v": 2}); err != nil {
		t.Fatal(err)
	}
	_, ver, _ := s.Get("c", "d")
	if ver != 2 {
		t.Fatalf("version = %d", ver)
	}
	if err := s.Update("c", "missing", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing err = %v", err)
	}
}

func TestDocUpsert(t *testing.T) {
	s, _ := newTestDocs()
	s.Upsert("c", "d", map[string]any{"v": 1})
	s.Upsert("c", "d", map[string]any{"v": 2})
	doc, ver, _ := s.Get("c", "d")
	if at(doc, "v") != 2 || ver != 2 {
		t.Fatalf("upsert result = %v v%d", doc, ver)
	}
}

func TestDocPatch(t *testing.T) {
	s, _ := newTestDocs()
	_ = s.Insert("c", "d", map[string]any{"keep": 1, "drop": 2, "change": 3})
	if err := s.Patch("c", "d", map[string]any{"change": 30, "drop": nil, "add": 4}); err != nil {
		t.Fatal(err)
	}
	doc, _, _ := s.Get("c", "d")
	if at(doc, "keep") != 1 || at(doc, "change") != 30 || at(doc, "add") != 4 {
		t.Fatalf("patched doc = %v", doc)
	}
	if _, has := doc.Lookup("drop"); has {
		t.Fatal("nil patch did not remove field")
	}
	if err := s.Patch("c", "missing", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("patch missing err = %v", err)
	}
}

func TestDocDelete(t *testing.T) {
	s, _ := newTestDocs()
	_ = s.Insert("c", "d", nil)
	if err := s.Delete("c", "d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("c", "d"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted doc still readable")
	}
	if err := s.Delete("c", "d"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

// The ownership rule, writer's side and reader's side: the map handed to
// a write stays the writer's, and a change to it afterwards — three maps
// down — reaches nothing the store holds; what a reader gets back is the
// stored value, and the only mutable thing it can ask of it, Map(), is a
// copy.
func TestDocIsolationFromCallerMutation(t *testing.T) {
	s, _ := newTestDocs()
	deep := map[string]any{"x": 1}
	doc := map[string]any{"a": 1, "meta": map[string]any{"mid": map[string]any{"deep": deep}}}
	_ = s.Insert("c", "d", doc)
	patchDeep := map[string]any{"y": 1}
	_ = s.Patch("c", "d", map[string]any{"p": map[string]any{"mid": patchDeep}})
	doc["a"] = 999
	deep["x"] = 999
	patchDeep["y"] = 999
	got, _, _ := s.Get("c", "d")
	if at(got, "a") != 1 || at(got, "meta.mid.deep.x") != 1 || at(got, "p.mid.y") != 1 {
		t.Fatalf("store aliases the writer's maps: %v", got)
	}
	m := got.Map()
	m["a"] = 777
	m["meta"].(map[string]any)["mid"].(map[string]any)["deep"].(map[string]any)["x"] = 777
	got2, _, _ := s.Get("c", "d")
	if at(got2, "a") != 1 || at(got2, "meta.mid.deep.x") != 1 {
		t.Fatalf("Map() aliases the stored document: %v", got2)
	}
	if got2 != got {
		t.Fatal("two reads of one version returned different values: a read copied")
	}
}

func TestDocQuery(t *testing.T) {
	s, _ := newTestDocs()
	for i := 0; i < 10; i++ {
		_ = s.Insert("products", fmt.Sprintf("p%02d", i), map[string]any{
			"price":    float64(i * 10),
			"category": map[bool]string{true: "shoes", false: "hats"}[i%2 == 0],
		})
	}
	q := query.MustParse(`products WHERE category = "shoes" AND price < 50 ORDER BY price DESC`)
	res := s.Query(q)
	if len(res) != 3 {
		t.Fatalf("result count = %d, want 3", len(res))
	}
	if at(res[0], "price") != 40.0 {
		t.Fatalf("first price = %v", at(res[0], "price"))
	}
	if res[0].ID() != "p04" {
		t.Fatalf("id not injected: %v", res[0].ID())
	}
}

func TestDocQueryEmptyCollection(t *testing.T) {
	s, _ := newTestDocs()
	res := s.Query(query.New("ghost", nil))
	if len(res) != 0 {
		t.Fatalf("got %d docs from ghost collection", len(res))
	}
}

func TestDocQueryStableOrderWithoutSort(t *testing.T) {
	s, _ := newTestDocs()
	for _, id := range []string{"c", "a", "b"} {
		_ = s.Insert("x", id, map[string]any{"v": 1})
	}
	q := query.New("x", nil).WithLimit(2)
	r1 := s.Query(q)
	r2 := s.Query(q)
	if r1[0].ID() != "a" || r1[1].ID() != "b" {
		t.Fatalf("unsorted query not in id order: %v,%v", r1[0].ID(), r1[1].ID())
	}
	if r1[0].ID() != r2[0].ID() || r1[1].ID() != r2[1].ID() {
		t.Fatal("repeated query unstable")
	}
}

func TestDocChangeStreamOrderAndImages(t *testing.T) {
	s, clk := newTestDocs()
	var events []ChangeEvent
	cancel := s.Watch(func(ev ChangeEvent) { events = append(events, ev) })
	defer cancel()

	_ = s.Insert("c", "d", map[string]any{"v": 1})
	clk.Advance(time.Second)
	_ = s.Update("c", "d", map[string]any{"v": 2})
	_ = s.Delete("c", "d")

	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0].Kind != ChangeInsert || !events[0].Before.IsZero() || at(events[0].After, "v") != 1 {
		t.Fatalf("insert event wrong: %+v", events[0])
	}
	if events[1].Kind != ChangeUpdate || at(events[1].Before, "v") != 1 || at(events[1].After, "v") != 2 {
		t.Fatalf("update event wrong: %+v", events[1])
	}
	if events[2].Kind != ChangeDelete || at(events[2].Before, "v") != 2 || !events[2].After.IsZero() {
		t.Fatalf("delete event wrong: %+v", events[2])
	}
	if !events[1].Time.After(events[0].Time) {
		t.Fatal("event times not advancing with clock")
	}
	if events[0].Version != 1 || events[1].Version != 2 {
		t.Fatalf("versions = %d,%d", events[0].Version, events[1].Version)
	}
}

func TestDocWatchCancel(t *testing.T) {
	s, _ := newTestDocs()
	n := 0
	cancel := s.Watch(func(ChangeEvent) { n++ })
	_ = s.Insert("c", "1", nil)
	cancel()
	_ = s.Insert("c", "2", nil)
	if n != 1 {
		t.Fatalf("watcher saw %d events after cancel, want 1", n)
	}
}

// An event's images are the stored values themselves — the After of one
// write is the Before of the next and what Get returns in between — and a
// watcher that keeps one can change nothing through it.
func TestDocChangeEventImagesAreCopies(t *testing.T) {
	s, _ := newTestDocs()
	var events []ChangeEvent
	cancel := s.Watch(func(ev ChangeEvent) { events = append(events, ev) })
	defer cancel()
	_ = s.Insert("c", "d", map[string]any{"v": 1, "meta": map[string]any{"k": 1}})
	stored, _, _ := s.Get("c", "d")
	if events[0].After != stored {
		t.Fatal("the insert's After is not the stored value")
	}
	m := events[0].After.Map()
	m["v"] = 999
	m["meta"].(map[string]any)["k"] = 999
	_ = s.Patch("c", "d", map[string]any{"v": 2})
	if events[1].Before != stored || at(events[1].Before, "v") != 1 || at(events[1].Before, "meta.k") != 1 {
		t.Fatalf("a kept image changed: %v", events[1].Before)
	}
	if at(stored, "v") != 1 || at(events[1].After, "v") != 2 || events[1].After.ID() != "d" {
		t.Fatalf("the patch reached the old image or lost the ID: before %v after %v", stored, events[1].After)
	}
	_ = s.Delete("c", "d")
	if events[2].Before != events[1].After || !events[2].After.IsZero() {
		t.Fatalf("delete images: %+v", events[2])
	}
}

func TestDocChangeKindString(t *testing.T) {
	if ChangeInsert.String() != "insert" || ChangeUpdate.String() != "update" || ChangeDelete.String() != "delete" {
		t.Fatal("kind names wrong")
	}
	if ChangeKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestDocCollectionsAndCount(t *testing.T) {
	s, _ := newTestDocs()
	_ = s.Insert("b", "1", nil)
	_ = s.Insert("a", "1", nil)
	_ = s.Insert("a", "2", nil)
	if s.Count("a") != 2 || s.Count("b") != 1 || s.Count("ghost") != 0 {
		t.Fatalf("counts = %d,%d,%d", s.Count("a"), s.Count("b"), s.Count("ghost"))
	}
}

func TestDocStats(t *testing.T) {
	s, _ := newTestDocs()
	_ = s.Insert("c", "1", nil)
	_ = s.Update("c", "1", nil)
	_ = s.Delete("c", "1")
	_, _, _ = s.Get("c", "1")
	s.Query(query.New("c", nil))
	st := s.Stats()
	if st.Inserts != 1 || st.Updates != 1 || st.Deletes != 1 || st.Reads != 1 || st.Queries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDocConcurrentWritersKeepStreamOrdered(t *testing.T) {
	s, _ := newTestDocs()
	var mu sync.Mutex
	versions := map[string][]uint64{}
	cancel := s.Watch(func(ev ChangeEvent) {
		mu.Lock()
		versions[ev.ID] = append(versions[ev.ID], ev.Version)
		mu.Unlock()
	})
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("doc-%d", w)
			_ = s.Insert("c", id, map[string]any{"v": 0})
			for i := 1; i <= 50; i++ {
				_ = s.Update("c", id, map[string]any{"v": i})
			}
		}(w)
	}
	wg.Wait()
	for id, vs := range versions {
		if len(vs) != 51 {
			t.Fatalf("%s: %d events", id, len(vs))
		}
		for i, v := range vs {
			if v != uint64(i+1) {
				t.Fatalf("%s: version %d at position %d — stream out of order", id, v, i)
			}
		}
	}
}

// The read-side promises: a Get hit hands out the stored value and
// delivering an event hands the same few words to every watcher. Neither
// allocates.
func TestDocReadPathsZeroAlloc(t *testing.T) {
	s, _ := newTestDocs()
	_ = s.Insert("products", "p1", map[string]any{"price": 10.0, "category": "shoes"})
	var doc query.Doc
	if n := testing.AllocsPerRun(200, func() { doc, _, _ = s.Get("products", "p1") }); n != 0 {
		t.Errorf("Get hit allocates %.1f times", n)
	}

	seen := 0
	for i := 0; i < 2; i++ {
		defer s.Watch(func(ev ChangeEvent) {
			if ev.After == doc {
				seen++
			}
		})()
	}
	ev := ChangeEvent{Collection: "products", ID: "p1", Kind: ChangeUpdate, Before: doc, After: doc, Version: 2}
	if n := testing.AllocsPerRun(200, func() { s.dispatch(ev) }); n != 0 {
		t.Errorf("delivering one event to two watchers allocates %.1f times", n)
	}
	if seen == 0 {
		t.Fatal("watchers did not see the event")
	}
}

// Readers race writers on the same documents and see each image whole:
// every write sets three fields, one of them nested, to one number, and
// no Get, query row or kept value ever shows two numbers — the Doc a
// reader holds is never the one a writer is building. Run under -race.
func TestDocReadersSeeWholeImagesUnderWrites(t *testing.T) {
	s, _ := newTestDocs()
	s.CreateIndex("c", "group")
	image := func(n int) map[string]any {
		return map[string]any{"a": n, "b": n, "nested": map[string]any{"n": n}}
	}
	const docs = 8
	for i := 0; i < docs; i++ {
		m := image(0)
		m["group"] = "g"
		_ = s.Insert("c", fmt.Sprintf("d%d", i), m)
	}
	whole := func(d query.Doc) (int, bool) {
		a, _ := at(d, "a").(int)
		return a, at(d, "b") == a && at(d, "nested.n") == a
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for n := 1; n <= 400; n++ {
				_ = s.Patch("c", fmt.Sprintf("d%d", (n+w)%docs), image(n))
			}
		}(w)
	}
	q := query.New("c", query.Eq("group", "g")).OrderBy("a", true).WithLimit(5)
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				held, _, err := s.Get("c", fmt.Sprintf("d%d", (i+r)%docs))
				if err != nil {
					t.Error(err)
					return
				}
				was, ok := whole(held)
				rows := s.Query(q)
				for _, row := range rows {
					if _, rowOK := whole(row); !rowOK {
						ok = false
					}
				}
				if now, still := whole(held); !ok || !still || now != was || len(rows) != 5 {
					t.Errorf("torn or changed image: held %v, rows %v", held, rows)
					return
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
