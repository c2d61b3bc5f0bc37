package invalidb

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"speedkit/internal/query"
	"speedkit/internal/storage"
)

// refHit is a match as the reference matcher reports it.
type refHit struct {
	id   string
	kind MatchKind
}

// referenceMatch is the brute-force matcher: classify every registration
// against the event, no index. The engine must produce exactly this
// event→query set, sorted by registration ID, for every event.
func referenceMatch(regs map[string]query.Query, ev storage.ChangeEvent) []refHit {
	var hits []refHit
	for id, q := range regs {
		if q.Collection != "" && q.Collection != ev.Collection {
			continue
		}
		if kind, ok := classifyImages(q, ev); ok {
			hits = append(hits, refHit{id: id, kind: kind})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].id < hits[j].id })
	return hits
}

func sameAsReference(got []Invalidation, want []refHit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].RegistrationID != want[i].id || got[i].Kind != want[i].kind {
			return false
		}
	}
	return true
}

// program decodes a byte string into registrations, removals and events:
// every choice is the next byte modulo the number of options, and 0 once
// the bytes run out. The property test feeds it random bytes and the
// fuzzer mutates them, so both explore the same space of filters.
type program struct {
	data []byte
	pos  int
}

func (p *program) done() bool { return p.pos >= len(p.data) }

func (p *program) next(n int) int {
	if p.done() {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return int(b) % n
}

var (
	programCollections = []string{"a", "b", "", "never-registered"}
	programFields      = []string{"cat", "price", "stock", "meta.tag", "meta.rank", "id"}
	// Documents are stored under the strings value draws, so a leg on id
	// meets IDs it equals.
	programIDs = []string{"a", "b", "c", "d"}
)

func (p *program) field() string { return programFields[p.next(len(programFields))] }

// value draws from every kind of operand and document value the
// predicate language meets: ints and floats that must compare by value,
// strings, and the non-scalars and NaN that equal nothing.
func (p *program) value() any {
	switch p.next(14) {
	case 0, 1:
		return float64(p.next(8))
	case 2:
		return p.next(8)
	case 3:
		return int64(p.next(8))
	case 4:
		return uint8(p.next(8))
	case 5:
		return float64(p.next(8)) + 0.5
	case 6, 7:
		return []string{"a", "b", "c", "d"}[p.next(4)]
	case 8:
		return p.next(2) == 0
	case 9:
		return nil
	case 10:
		return []any{1}
	case 11:
		return math.NaN()
	case 12:
		return math.Inf(1)
	default:
		return math.Inf(-1)
	}
}

func (p *program) rangeLeg(field string) query.Predicate {
	v := p.value()
	switch p.next(4) {
	case 0:
		return query.Gt(field, v)
	case 1:
		return query.Gte(field, v)
	case 2:
		return query.Lt(field, v)
	default:
		return query.Lte(field, v)
	}
}

func (p *program) filter(depth int) query.Predicate {
	n := 14
	if depth <= 0 {
		n = 10 // leaves only
	}
	switch p.next(n) {
	case 0:
		return nil
	case 1:
		return query.Eq(p.field(), p.value())
	case 2:
		return p.rangeLeg(p.field())
	case 3:
		// The facet shape: equality and a two-sided range on one field.
		f := p.field()
		return query.And{query.Eq(p.field(), p.value()), p.rangeLeg(f), p.rangeLeg(f)}
	case 4:
		return query.Ne(p.field(), p.value())
	case 5:
		return query.In(p.field(), p.value(), p.value())
	case 6:
		return query.Exists(p.field())
	case 7:
		return query.Prefix(p.field(), "a")
	case 8:
		return query.Contains(p.field(), "b")
	case 9:
		return query.True{}
	case 10, 11:
		legs := make(query.And, p.next(4))
		for i := range legs {
			legs[i] = p.operand(depth - 1)
		}
		return legs
	case 12:
		return query.Or{p.operand(depth - 1), p.operand(depth - 1)}
	default:
		return query.Not{P: p.operand(depth - 1)}
	}
}

// operand is a filter that can stand inside a junction, where only a
// query's top level may be nil.
func (p *program) operand(depth int) query.Predicate {
	if f := p.filter(depth); f != nil {
		return f
	}
	return query.True{}
}

func (p *program) doc() map[string]any {
	doc := map[string]any{}
	for _, f := range []string{"cat", "price", "stock"} {
		if p.next(4) != 0 {
			doc[f] = p.value()
		}
	}
	switch p.next(4) {
	case 0:
		doc["meta"] = p.value() // a dotted path dead-ends in a scalar
	case 1, 2:
		doc["meta"] = map[string]any{"tag": p.value(), "rank": p.value()}
	}
	if p.next(8) == 1 {
		doc["id"] = p.value() // a field of its own hides the ID it is stored under
	}
	return doc
}

func (p *program) event() storage.ChangeEvent {
	collection := programCollections[p.next(len(programCollections))]
	id := programIDs[p.next(len(programIDs))]
	var before, after map[string]any
	if p.next(4) != 0 {
		before = p.doc()
	}
	switch p.next(4) {
	case 0:
	case 1:
		// The common write: one field of the before image patched.
		if before != nil {
			after = maps.Clone(before)
			after[[]string{"cat", "price", "stock"}[p.next(3)]] = p.value()
			break
		}
		fallthrough
	default:
		after = p.doc()
	}
	return changeEvent(collection, id, storage.ChangeUpdate, before, after)
}

// run interprets the program against a fresh engine and the reference,
// failing on the first event they disagree on. It returns the number of
// events compared and of hits seen.
func (p *program) run(t *testing.T) (events, hits int) {
	t.Helper()
	engine := New(Config{})
	regs := make(map[string]query.Query)
	for !p.done() {
		id := fmt.Sprintf("/q/%02d", p.next(24))
		switch op := p.next(8); {
		case op < 2:
			// Re-registering an ID draws a new collection too.
			q := query.Query{
				Collection: programCollections[p.next(3)],
				Filter:     p.filter(2),
			}
			regs[id] = q
			engine.Register(id, q)
		case op == 2:
			_, had := regs[id]
			delete(regs, id)
			if engine.Unregister(id) != had {
				t.Fatalf("Unregister(%s) = %v, reference had it: %v", id, !had, had)
			}
		default:
			ev := p.event()
			want := referenceMatch(regs, ev)
			got := engine.Process(ev)
			if !sameAsReference(got, want) {
				t.Fatalf("event %+v over %s:\n got  %s\n want %v", ev, describe(regs), describeHits(got), want)
			}
			events++
			hits += len(got)
		}
	}
	if engine.Registered() != len(regs) {
		t.Fatalf("registered = %d, reference holds %d", engine.Registered(), len(regs))
	}
	return events, hits
}

func describe(regs map[string]query.Query) string {
	ids := make([]string, 0, len(regs))
	for id := range regs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s := ""
	for _, id := range ids {
		s += fmt.Sprintf("\n  %s = %s", id, regs[id].ID())
	}
	return s
}

func describeHits(invs []Invalidation) string {
	s := "["
	for _, inv := range invs {
		s += fmt.Sprintf("{%s %v}", inv.RegistrationID, inv.Kind)
	}
	return s + "]"
}

// The exactness property behind the index: over random filters of every
// shape the predicate language has — conjunctions of equality and one- or
// two-sided ranges, bare ranges, In, Ne, Or, Not, dotted fields, ints
// against floats, string bounds, missing, nil and non-scalar values, nil
// images, collections nothing is registered in — with registrations
// added, replaced into other collections and removed between events, the
// engine invalidates exactly the (registration, kind) set of the
// brute-force matcher. The index may only ever drop a query neither image
// can satisfy.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	events, hits := 0, 0
	for round := 0; round < 200; round++ {
		data := make([]byte, 2048)
		rng.Read(data)
		e, h := (&program{data: data}).run(t)
		events, hits = events+e, hits+h
	}
	if events < 5000 || hits < events/4 {
		t.Fatalf("compared %d events with %d hits: the programs exercise too little", events, hits)
	}
}

// FuzzMatchIndex lets the fuzzer write the program: any byte string is a
// valid sequence of registrations, removals and events, and the engine
// must agree with the reference on every event of it.
func FuzzMatchIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x03\x01\x00\x01\x01\x00\x02\x03\x00\x01\x00\x01\x01\x00\x01\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		(&program{data: data}).run(t)
	})
}

// What the index is for: on the write_storm shape — thousands of facet
// queries `category = c AND price >= lo AND price < hi` in one collection
// — an event must evaluate the handful of queries its images reach, not
// the registrations. Every filter starts with a leg that counts its own
// evaluations.
func TestIndexPrunesCandidates(t *testing.T) {
	var evaluated atomic.Int64
	e := New(Config{})
	const categories, bands = 8, 256
	for c := 0; c < categories; c++ {
		for b := 0; b < bands; b++ {
			e.Register(fmt.Sprintf("/facet/%d/band-%d", c, b), query.Query{
				Collection: "products",
				Filter: query.And{
					countingLeg{&evaluated},
					query.Eq("category", fmt.Sprintf("c%d", c)),
					query.Gte("price", float64(b*10)),
					query.Lt("price", float64(b*10+10)),
				},
			})
		}
	}
	invs := e.Process(updateEvent("p1",
		map[string]any{"category": "c3", "price": 15.0},
		map[string]any{"category": "c3", "price": 1234.5}))
	if len(invs) != 2 || invs[0].Kind != Left || invs[1].Kind != Entered ||
		invs[0].RegistrationID != "/facet/3/band-1" || invs[1].RegistrationID != "/facet/3/band-123" {
		t.Fatalf("invalidations = %s", describeHits(invs))
	}
	// Two bands reached; each is classified against both images, and a
	// closed interval lets the band that ends at an image's price in too.
	if n := evaluated.Load(); n > 8 {
		t.Fatalf("%d filter evaluations for one event over %d registrations", n, e.Registered())
	}
}

type countingLeg struct{ n *atomic.Int64 }

func (c countingLeg) Match(query.Doc) bool     { c.n.Add(1); return true }
func (countingLeg) Canonical() string          { return "COUNT" }
func (countingLeg) Fields(map[string]struct{}) {}

// The interval set against a linear filter: nested, disjoint, duplicate,
// half-bounded and empty intervals, stabbed inside, outside and on the
// bounds, alone and after another point.
func TestIntervalStab(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bound := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return math.Inf(-1)
		case 1:
			return math.Inf(1)
		}
		return float64(rng.Intn(40))
	}
	for round := 0; round < 200; round++ {
		b := &bucket{}
		iv := b.intervalsOn("x")
		regs := make([]*registration, rng.Intn(60))
		for i := range regs {
			regs[i] = &registration{id: fmt.Sprint(i), q: query.New("", nil)}
			iv.ents = append(iv.ents, interval{lo: bound(), hi: bound(), reg: regs[i]})
		}
		b.seal()
		points := []float64{math.Inf(-1), -1, 0, 0.5, 7, 20, 39, 40, math.Inf(1)}
		for _, v := range points {
			// Every second stab passes over what an earlier one found.
			seen := math.NaN()
			if rng.Intn(2) == 0 {
				seen = points[rng.Intn(len(points))]
			}
			want := map[*registration]bool{}
			for _, e := range iv.ents {
				if e.lo <= v && v <= e.hi && !(e.lo <= seen && seen <= e.hi) {
					want[e.reg] = true
				}
			}
			s := sink{ev: &storage.ChangeEvent{After: query.NewDoc("", nil)}, dst: make([]hit, len(regs))}
			iv.stab(&s, v, seen, 0, len(iv.ents))
			got := map[*registration]bool{}
			for _, h := range s.dst[:s.n] {
				if got[h.reg] {
					t.Fatalf("stab(%v) returned %s twice", v, h.reg.id)
				}
				got[h.reg] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stab(%v, seen %v) over %v: got %d, want %d", v, seen, iv.ents, len(got), len(want))
			}
		}
	}
}

// Cross-collection predicates (empty Collection) match events of any
// collection by filter alone, and their hits merge sorted with the
// collection's.
func TestCrossCollectionMergePath(t *testing.T) {
	e := New(Config{})
	e.Register("/audit", query.New("", query.Gte("price", 100.0)))
	e.Register("/pricey-products", query.MustParse(`products WHERE price >= 100`))

	ev := changeEvent("products", "p1", storage.ChangeInsert, nil, map[string]any{"price": 150.0})
	invs := e.Process(ev)
	if len(invs) != 2 {
		t.Fatalf("hits = %d, want collection hit + merged global hit", len(invs))
	}
	if invs[0].RegistrationID != "/audit" || invs[1].RegistrationID != "/pricey-products" {
		t.Fatalf("merge order = %s, %s", invs[0].RegistrationID, invs[1].RegistrationID)
	}
	// A different collection still trips the cross-collection predicate.
	ev2 := changeEvent("users", "u1", storage.ChangeInsert, nil, map[string]any{"price": 200.0})
	invs = e.Process(ev2)
	if len(invs) != 1 || invs[0].RegistrationID != "/audit" {
		t.Fatalf("global-only match = %v", invs)
	}
	// But not below its filter.
	ev3 := changeEvent("users", "u2", storage.ChangeInsert, nil, map[string]any{"price": 10.0})
	if invs := e.Process(ev3); len(invs) != 0 {
		t.Fatalf("filter ignored on merge path: %v", invs)
	}
}

// Re-registering an ID under a different collection must move it between
// the collections' indexes — the old one may not keep matching the stale
// query. (The name dates from the collection-hash shards the indexes
// replaced.)
func TestRegisterMovesShardOnCollectionChange(t *testing.T) {
	e := New(Config{})
	e.Register("/x", query.New("products", nil))
	ev := changeEvent("products", "p1", storage.ChangeInsert, nil, map[string]any{})
	if invs := e.Process(ev); len(invs) != 1 {
		t.Fatalf("registration not matching before the move: %v", invs)
	}
	e.Register("/x", query.New("users", nil))
	if e.Registered() != 1 {
		t.Fatalf("registered = %d, want 1", e.Registered())
	}
	if invs := e.Process(ev); len(invs) != 0 {
		t.Fatalf("stale index still matches: %v", invs)
	}
	ev2 := changeEvent("users", "u1", storage.ChangeInsert, nil, map[string]any{})
	if invs := e.Process(ev2); len(invs) != 1 {
		t.Fatalf("moved registration not matching: %v", invs)
	}
	if !e.Unregister("/x") {
		t.Fatal("unregister after move failed")
	}
	if invs := e.Process(ev2); len(invs) != 0 {
		t.Fatalf("unregistered query still matching: %v", invs)
	}
}

// The match loop runs for every write: with the destination owned by
// the caller it must allocate nothing, whether rejecting or collecting,
// through postings, intervals and the residual alike — and an event that
// invalidates nothing must cost Process no allocation either.
func TestMatchIntoZeroAlloc(t *testing.T) {
	e := New(Config{})
	for i := 0; i < 64; i++ {
		e.Register(fmt.Sprintf("/range/%d", i), query.New("products", query.Gte("price", float64(i))))
		e.Register(fmt.Sprintf("/facet/%d", i), query.New("products",
			query.And{query.Eq("meta.cat", "c"), query.Gte("price", float64(i)), query.Lt("price", float64(i+1))}))
		e.Register(fmt.Sprintf("/residual/%d", i), query.New("products", query.Contains("name", "x")))
		// No event below is stored under these; reading the ID an image
		// is stored under, which is no field of it, must not box it.
		e.Register(fmt.Sprintf("/one/%d", i), query.New("products", query.Eq("id", fmt.Sprintf("q%d", i))))
	}
	m := e.currentMatcher()
	dst := make([]hit, e.Registered())
	match := insertEvent("p1", map[string]any{"price": 200.0, "name": "xy", "meta": map[string]any{"cat": "c"}})
	miss := updateEvent("p2",
		map[string]any{"price": -1.0, "name": "y", "meta": map[string]any{"cat": "c"}},
		map[string]any{"price": -2.0, "name": "y", "meta": map[string]any{"cat": "d"}})
	foreign := changeEvent("users", "u1", storage.ChangeInsert, nil, map[string]any{"price": 200.0})
	if n := testing.AllocsPerRun(1000, func() {
		if m.matchInto(&match, dst) != 128 {
			t.Fatal("hits on matching event != 64 ranges + 64 residual")
		}
	}); n != 0 {
		t.Fatalf("matchInto (hits) allocates %.1f per run, want 0", n)
	}
	e.OnInvalidation(func(Invalidation) {})
	for _, ev := range []storage.ChangeEvent{miss, foreign} {
		ev := ev
		if n := testing.AllocsPerRun(1000, func() {
			if m.matchInto(&ev, dst) != 0 {
				t.Fatal("hits on a non-matching event")
			}
		}); n != 0 {
			t.Fatalf("matchInto (reject) allocates %.1f per run, want 0", n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if e.Process(ev) != nil {
				t.Fatal("hits on a non-matching event")
			}
		}); n != 0 {
			t.Fatalf("Process without hits allocates %.1f per run, want 0", n)
		}
	}
}

// An event's allocations follow its hits, not the registrations: one
// slice of invalidations, whether 256 facet queries are registered or
// 2 048.
func TestProcessCostFollowsHits(t *testing.T) {
	for _, queries := range []int{256, 2048} {
		e, events := selectiveFixture(queries)
		ev := events[1]
		if len(e.Process(ev)) == 0 {
			t.Fatalf("%d queries: fixture event matches nothing", queries)
		}
		if n := testing.AllocsPerRun(200, func() { e.Process(ev) }); n != 1 {
			t.Fatalf("%d queries: Process allocates %.1f per event, want 1", queries, n)
		}
	}
}

// Kinds must flow through the indexed path unchanged. (The name dates
// from the collection-hash shards the indexes replaced.)
func TestShardedKindClassification(t *testing.T) {
	e := New(Config{})
	e.Register("/q", query.MustParse(`products WHERE price < 100`))
	cases := []struct {
		before, after map[string]any
		want          MatchKind
	}{
		{nil, map[string]any{"price": 50.0}, Entered},
		{map[string]any{"price": 50.0}, map[string]any{"price": 150.0}, Left},
		{map[string]any{"price": 50.0}, map[string]any{"price": 60.0}, Changed},
	}
	for i, c := range cases {
		ev := updateEvent("p1", c.before, c.after)
		invs := e.Process(ev)
		if len(invs) != 1 || invs[0].Kind != c.want {
			t.Fatalf("case %d: invs = %v, want one %v", i, invs, c.want)
		}
	}
	if !reflect.DeepEqual(e.Stats(), Stats{EventsProcessed: 3, Matches: 3, Registered: 1}) {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

// Registrations churn while events are processed (run under -race). Each
// churned ID keeps one query for the whole test, and a sequence number
// that is odd from before its Register until after its Unregister; a hit
// on it is legitimate only if it was — or became — registered at some
// point during the Process call, and only if the reference matcher agrees
// on the kind. The stable registrations must be reported by every event
// that matches them, whatever is being rebuilt around them.
func TestConcurrentRegistrationChurn(t *testing.T) {
	const churned, rounds = 16, 300
	e := New(Config{})
	stable := map[string]query.Query{
		"/stable/all":   query.New("products", nil),
		"/stable/cheap": query.New("products", query.Lt("price", 50.0)),
		"/stable/shoes": query.New("products", query.And{query.Eq("category", "shoes"), query.Gte("price", 10.0)}),
		"/stable/any":   query.New("", query.Gte("price", 90.0)),
	}
	for id, q := range stable {
		e.Register(id, q)
	}
	queries := make(map[string]query.Query, churned)
	seqs := make(map[string]*atomic.Uint64, churned)
	for i := 0; i < churned; i++ {
		id := fmt.Sprintf("/churn/%02d", i)
		seqs[id] = new(atomic.Uint64)
		switch i % 4 {
		case 0:
			queries[id] = query.New("products", query.And{query.Eq("category", "shoes"), query.Lt("price", float64(10*i))})
		case 1:
			queries[id] = query.New("products", query.Gte("price", float64(5*i)))
		case 2:
			queries[id] = query.New("", query.Ne("category", "hats"))
		default:
			queries[id] = query.New("users", nil)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				// Each writer owns half the IDs, so an ID's sequence is
				// only ever advanced by one goroutine.
				id := fmt.Sprintf("/churn/%02d", 2*rng.Intn(churned/2)+w)
				seqs[id].Add(1)
				e.Register(id, queries[id])
				e.Unregister(id)
				seqs[id].Add(1)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			before := make(map[string]uint64, churned)
			for i := 0; i < rounds; i++ {
				ev := updateEvent("p1",
					map[string]any{"category": []string{"shoes", "hats"}[rng.Intn(2)], "price": float64(rng.Intn(100))},
					map[string]any{"category": "shoes", "price": float64(rng.Intn(100))})
				for id, seq := range seqs {
					before[id] = seq.Load()
				}
				invs := e.Process(ev)
				got := make(map[string]MatchKind, len(invs))
				for j, inv := range invs {
					if j > 0 && invs[j-1].RegistrationID >= inv.RegistrationID {
						t.Errorf("hits out of order: %s", describeHits(invs))
					}
					got[inv.RegistrationID] = inv.Kind
				}
				for _, want := range referenceMatch(stable, ev) {
					if kind, ok := got[want.id]; !ok || kind != want.kind {
						t.Errorf("stable %s: got (%v, %v), want %v", want.id, kind, ok, want.kind)
					}
					delete(got, want.id)
				}
				for id, kind := range got {
					q, churns := queries[id]
					if !churns {
						t.Errorf("hit on %s, which matches nothing registered", id)
						continue
					}
					if want, ok := classifyImages(q, ev); !ok || want != kind || q.Collection == "users" {
						t.Errorf("hit (%s, %v) disagrees with its query", id, kind)
					}
					if s := before[id]; s%2 == 0 && seqs[id].Load() == s {
						t.Errorf("hit on %s, unregistered throughout the call", id)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if e.Registered() != len(stable) {
		t.Fatalf("registered = %d after the churn, want %d", e.Registered(), len(stable))
	}
}
