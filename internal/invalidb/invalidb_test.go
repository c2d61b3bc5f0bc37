package invalidb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/query"
	"speedkit/internal/storage"
)

func shoesQuery() query.Query {
	return query.MustParse(`products WHERE category = "shoes" AND price < 100`)
}

// changeEvent builds an event the way the store does: each image frozen
// under the document's ID, a nil map the side on which the document does
// not exist.
func changeEvent(collection, id string, kind storage.ChangeKind, before, after map[string]any) storage.ChangeEvent {
	ev := storage.ChangeEvent{Collection: collection, ID: id, Kind: kind}
	if before != nil {
		ev.Before = query.NewDoc(id, before)
	}
	if after != nil {
		ev.After = query.NewDoc(id, after)
	}
	return ev
}

func insertEvent(id string, doc map[string]any) storage.ChangeEvent {
	return changeEvent("products", id, storage.ChangeInsert, nil, doc)
}

func updateEvent(id string, before, after map[string]any) storage.ChangeEvent {
	return changeEvent("products", id, storage.ChangeUpdate, before, after)
}

func deleteEvent(id string, before map[string]any) storage.ChangeEvent {
	return changeEvent("products", id, storage.ChangeDelete, before, nil)
}

func TestClassifyKinds(t *testing.T) {
	e := New(Config{})
	e.Register("/category/shoes", shoesQuery())

	cheapShoe := map[string]any{"category": "shoes", "price": 50.0}
	dearShoe := map[string]any{"category": "shoes", "price": 200.0}
	hat := map[string]any{"category": "hats", "price": 10.0}

	cases := []struct {
		name string
		ev   storage.ChangeEvent
		want MatchKind
		hits int
	}{
		{"insert matching", insertEvent("p1", cheapShoe), Entered, 1},
		{"insert non-matching", insertEvent("p2", hat), 0, 0},
		{"update into result", updateEvent("p3", dearShoe, cheapShoe), Entered, 1},
		{"update out of result", updateEvent("p4", cheapShoe, dearShoe), Left, 1},
		{"update within result", updateEvent("p5", cheapShoe, map[string]any{"category": "shoes", "price": 60.0}), Changed, 1},
		{"update outside result", updateEvent("p6", hat, hat), 0, 0},
		{"delete matching", deleteEvent("p7", cheapShoe), Left, 1},
		{"delete non-matching", deleteEvent("p8", hat), 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			invs := e.Process(c.ev)
			if len(invs) != c.hits {
				t.Fatalf("hits = %d, want %d", len(invs), c.hits)
			}
			if c.hits == 1 && invs[0].Kind != c.want {
				t.Fatalf("kind = %v, want %v", invs[0].Kind, c.want)
			}
		})
	}
}

func TestCollectionIsolation(t *testing.T) {
	e := New(Config{})
	e.Register("/category/shoes", shoesQuery())
	ev := changeEvent("users", "u1", storage.ChangeInsert, nil, map[string]any{"category": "shoes", "price": 1.0})
	if invs := e.Process(ev); len(invs) != 0 {
		t.Fatalf("cross-collection match: %v", invs)
	}
}

func TestMultipleRegistrationsSortedDelivery(t *testing.T) {
	e := New(Config{})
	e.Register("/b", query.New("products", nil))
	e.Register("/a", query.New("products", nil))
	e.Register("/c", query.MustParse(`products WHERE price > 1000`))
	invs := e.Process(insertEvent("p1", map[string]any{"price": 5.0}))
	if len(invs) != 2 {
		t.Fatalf("hits = %d", len(invs))
	}
	if invs[0].RegistrationID != "/a" || invs[1].RegistrationID != "/b" {
		t.Fatalf("order = %v, %v", invs[0].RegistrationID, invs[1].RegistrationID)
	}
}

func TestUnregister(t *testing.T) {
	e := New(Config{})
	e.Register("/x", query.New("products", nil))
	if !e.Unregister("/x") {
		t.Fatal("unregister existing failed")
	}
	if e.Unregister("/x") {
		t.Fatal("double unregister succeeded")
	}
	if invs := e.Process(insertEvent("p1", map[string]any{})); len(invs) != 0 {
		t.Fatal("unregistered query still matching")
	}
}

func TestRegisterReplaces(t *testing.T) {
	e := New(Config{})
	e.Register("/x", query.MustParse(`products WHERE price > 1000`))
	e.Register("/x", query.New("products", nil)) // replace with match-all
	invs := e.Process(insertEvent("p1", map[string]any{"price": 1.0}))
	if len(invs) != 1 {
		t.Fatalf("replaced registration not effective: %d hits", len(invs))
	}
	if e.Registered() != 1 {
		t.Fatalf("registered = %d", e.Registered())
	}
}

func TestSubscribersReceiveSignals(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	e := New(Config{Clock: clk})
	e.Register("/all", query.New("products", nil))
	var got []Invalidation
	cancel := e.OnInvalidation(func(inv Invalidation) { got = append(got, inv) })
	e.Process(insertEvent("p1", map[string]any{"x": 1}))
	cancel()
	e.Process(insertEvent("p2", map[string]any{"x": 1}))
	if len(got) != 1 {
		t.Fatalf("subscriber saw %d signals, want 1", len(got))
	}
	if !got[0].DetectedAt.Equal(clk.Now()) {
		t.Fatal("DetectedAt wrong")
	}
	if got[0].Change.ID != "p1" {
		t.Fatal("change not propagated")
	}
}

func TestAttachToDocumentStore(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	docs := storage.NewDocumentStore(clk)
	e := New(Config{Clock: clk})
	e.Register("/cheap", query.MustParse(`products WHERE price < 100`))

	var signals []Invalidation
	e.OnInvalidation(func(inv Invalidation) { signals = append(signals, inv) })
	defer docs.Watch(func(ev storage.ChangeEvent) { e.Process(ev) })()

	_ = docs.Insert("products", "p1", map[string]any{"price": 50.0})
	_ = docs.Patch("products", "p1", map[string]any{"price": 60.0})
	_ = docs.Patch("products", "p1", map[string]any{"price": 500.0})
	_ = docs.Delete("products", "p1")

	if len(signals) != 3 {
		t.Fatalf("signals = %d, want 3 (enter, change, leave)", len(signals))
	}
	if signals[0].Kind != Entered || signals[1].Kind != Changed || signals[2].Kind != Left {
		t.Fatalf("kinds = %v %v %v", signals[0].Kind, signals[1].Kind, signals[2].Kind)
	}
}

func TestShardingCoversAllRegistrations(t *testing.T) {
	e := New(Config{})
	const n = 200
	for i := 0; i < n; i++ {
		e.Register(fmt.Sprintf("/q/%d", i), query.New("products", nil))
	}
	if e.Registered() != n {
		t.Fatalf("registered = %d", e.Registered())
	}
	invs := e.Process(insertEvent("p1", map[string]any{"x": 1}))
	if len(invs) != n {
		t.Fatalf("hits = %d, want %d (every registration must match)", len(invs), n)
	}
}

func TestStats(t *testing.T) {
	e := New(Config{})
	e.Register("/all", query.New("products", nil))
	e.Process(insertEvent("p1", map[string]any{}))
	e.Process(insertEvent("p2", map[string]any{}))
	st := e.Stats()
	if st.EventsProcessed != 2 || st.Matches != 2 || st.Registered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMatchKindString(t *testing.T) {
	if Entered.String() != "entered" || Left.String() != "left" ||
		Changed.String() != "changed" || MatchKind(9).String() != "unknown" {
		t.Fatal("names wrong")
	}
}

func TestConcurrentProcessAndRegister(t *testing.T) {
	e := New(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.Register(fmt.Sprintf("/q/%d/%d", w, i), query.MustParse(`products WHERE price < 100`))
				e.Process(insertEvent(fmt.Sprintf("p%d", i), map[string]any{"price": float64(i)}))
			}
		}(w)
	}
	wg.Wait()
	if e.Registered() != 800 {
		t.Fatalf("registered = %d", e.Registered())
	}
	if e.Stats().EventsProcessed != 800 {
		t.Fatalf("events = %d", e.Stats().EventsProcessed)
	}
}

func BenchmarkProcess1kQueries(b *testing.B) {
	e := New(Config{})
	for i := 0; i < 1000; i++ {
		e.Register(fmt.Sprintf("/q/%d", i),
			query.MustParse(fmt.Sprintf(`products WHERE price < %d`, i%500)))
	}
	ev := insertEvent("p1", map[string]any{"price": 250.0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(ev)
	}
}

// A page defined by the ID a document is stored under — `id = "p1"`, a
// "featured products" `id IN […]` — is answered by the store and must be
// invalidated by a write to that document. The ID is no field of the
// document; the store and the matcher read it through the same Lookup,
// so an event's images carry it as the query rows do. (Before the images
// were Docs they did not, and such a page was never invalidated.)
func TestPageDefinedByIDIsInvalidated(t *testing.T) {
	docs := storage.NewDocumentStore(nil)
	_ = docs.Insert("products", "p1", map[string]any{"price": 10.0})
	_ = docs.Insert("products", "p2", map[string]any{"price": 20.0})
	one := query.New("products", query.Eq("id", "p1"))
	featured := query.New("products", query.In("id", "p1", "p3"))
	if rows := docs.Query(one); len(rows) != 1 || rows[0].ID() != "p1" {
		t.Fatalf("the store answers %s with %v", one.ID(), rows)
	}

	e := New(Config{})
	e.Register("/one", one)
	e.Register("/featured", featured)
	defer docs.Watch(func(ev storage.ChangeEvent) { e.Process(ev) })()
	var got []string
	e.OnInvalidation(func(inv Invalidation) { got = append(got, inv.RegistrationID+" "+inv.Kind.String()) })

	_ = docs.Patch("products", "p1", map[string]any{"price": 5.0})
	_ = docs.Patch("products", "p2", map[string]any{"price": 6.0})
	_ = docs.Insert("products", "p3", map[string]any{"price": 7.0})
	_ = docs.Delete("products", "p1")
	want := []string{"/featured changed", "/one changed", "/featured entered", "/featured left", "/one left"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("invalidations = %v, want %v", got, want)
	}
}

// An equality leg on id is a posting like any other: an event reaches
// the one query that pins its ID, not the registrations.
func TestIDLegIsAPosting(t *testing.T) {
	var evaluated atomic.Int64
	e := New(Config{})
	for i := 0; i < 500; i++ {
		e.Register(fmt.Sprintf("/one/%d", i), query.New("products",
			query.And{countingLeg{&evaluated}, query.Eq("id", fmt.Sprintf("p%d", i))}))
	}
	invs := e.Process(updateEvent("p7", map[string]any{"price": 1.0}, map[string]any{"price": 2.0}))
	if len(invs) != 1 || invs[0].RegistrationID != "/one/7" || invs[0].Kind != Changed {
		t.Fatalf("invalidations = %s", describeHits(invs))
	}
	if n := evaluated.Load(); n > 2 {
		t.Fatalf("%d filter evaluations for one event over %d id pages", n, e.Registered())
	}
}
