package query

import (
	"fmt"
	"reflect"
	"testing"
)

// docOf freezes a test document that is stored nowhere.
func docOf(m map[string]any) Doc { return NewDoc("", m) }

func TestDocLookup(t *testing.T) {
	d := NewDoc("p1", map[string]any{
		"price": 9.5,
		"meta":  map[string]any{"tag": "x", "dim": map[string]any{"w": int64(3)}},
		"list":  []any{1, "a"},
		"n":     nil,
	})
	cases := []struct {
		path string
		want any
		ok   bool
	}{
		{"price", 9.5, true},
		{"meta.tag", "x", true},
		{"meta.dim.w", int64(3), true},
		{"n", nil, true}, // present and null is not absent
		{"id", "p1", true},
		{"absent", nil, false},
		{"meta.absent", nil, false},
		{"price.x", nil, false}, // through a scalar
		{"list.0", nil, false},  // lists are opaque to paths
		{"id.x", nil, false},
		{"meta.id", nil, false}, // only the stored document has an ID
		{"", nil, false},
	}
	for _, c := range cases {
		got, ok := d.Lookup(c.path)
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%q) = %v, %v; want %v, %v", c.path, got, ok, c.want, c.ok)
		}
	}
	if v, ok := d.Lookup("meta"); !ok || v.(Doc).Len() != 2 {
		t.Errorf("Lookup(meta) = %v, %v; want the nested document", v, ok)
	}
	if d.ID() != "p1" || d.Len() != 4 || d.IsZero() {
		t.Errorf("ID %q, Len %d, IsZero %v", d.ID(), d.Len(), d.IsZero())
	}
}

// A field called "id" wins over the store ID, whatever its type; a
// document without an ID has no "id" at all.
func TestDocLookupIDField(t *testing.T) {
	own := NewDoc("p1", map[string]any{"id": 7})
	if v, ok := own.Lookup("id"); !ok || v != 7 {
		t.Errorf("own id field: got %v, %v", v, ok)
	}
	if own.ID() != "p1" {
		t.Errorf("ID() = %q, want the store ID", own.ID())
	}
	if v, ok := docOf(map[string]any{"a": 1}).Lookup("id"); ok {
		t.Errorf("unstored document has id %v", v)
	}
	if !Eq("id", "p1").Match(NewDoc("p1", nil)) || Eq("id", "p1").Match(NewDoc("p2", nil)) {
		t.Error("a predicate on id does not read the store ID")
	}
}

func TestDocZero(t *testing.T) {
	var z Doc
	if !z.IsZero() || z.Len() != 0 || z.ID() != "" || z.Map() != nil {
		t.Errorf("zero Doc: IsZero %v Len %d ID %q Map %v", z.IsZero(), z.Len(), z.ID(), z.Map())
	}
	if _, ok := z.Lookup("x"); ok {
		t.Error("zero Doc has a field")
	}
	if e := NewDoc("", nil); e.IsZero() || e.Len() != 0 {
		t.Error("an empty document is not the zero Doc")
	}
	if m := z.Merge(map[string]any{"a": 1}); m.Len() != 1 || m.ID() != "" {
		t.Errorf("zero.Merge = %v", m)
	}
}

func TestDocFieldsInKeyOrder(t *testing.T) {
	d := docOf(map[string]any{"b": 2, "c": 3, "a": 1, "aa": 0})
	var keys []string
	for i := 0; i < d.Len(); i++ {
		k, _ := d.Field(i)
		keys = append(keys, k)
	}
	if want := []string{"a", "aa", "b", "c"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
}

// Nothing the caller keeps and nothing a reader is handed reaches the
// frozen value, at any depth.
func TestDocIsFrozenAtEveryLevel(t *testing.T) {
	l3 := map[string]any{"x": 1}
	list := []any{map[string]any{"y": 1}, 2}
	src := map[string]any{"a": 1, "l1": map[string]any{"l2": map[string]any{"l3": l3}}, "list": list}
	d := docOf(src)
	want := d.Map()

	src["a"] = 999
	src["new"] = true
	l3["x"] = 999
	list[0].(map[string]any)["y"] = 999
	list[1] = 999
	if got := d.Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("caller's map reaches the Doc:\n got %v\nwant %v", got, want)
	}

	out := d.Map()
	out["a"] = 777
	out["l1"].(map[string]any)["l2"].(map[string]any)["l3"].(map[string]any)["x"] = 777
	out["list"].([]any)[0].(map[string]any)["y"] = 777
	if got := d.Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Map() aliases the Doc:\n got %v\nwant %v", got, want)
	}
	if v, _ := d.Lookup("l1.l2.l3.x"); v != 1 {
		t.Fatalf("l1.l2.l3.x = %v", v)
	}
}

func TestDocMerge(t *testing.T) {
	nested := map[string]any{"k": 1}
	d := NewDoc("p1", map[string]any{"keep": 1, "drop": 2, "change": 3})
	m := d.Merge(map[string]any{"change": 30, "drop": nil, "add": nested, "ghost": nil})
	nested["k"] = 999
	want := map[string]any{"keep": 1, "change": 30, "add": map[string]any{"k": 1}}
	if got := m.Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	if m.ID() != "p1" {
		t.Fatalf("merged ID = %q", m.ID())
	}
	if k, _ := m.Field(0); k != "add" {
		t.Fatalf("merged fields out of order: first is %q", k)
	}
	if got := d.Map(); !reflect.DeepEqual(got, map[string]any{"keep": 1, "drop": 2, "change": 3}) {
		t.Fatalf("Merge changed its receiver: %v", got)
	}
}

// A Doc prints as the map it was frozen from: page bodies are rendered
// with %v and %q and must not move.
func TestDocFormatsAsItsMap(t *testing.T) {
	m := map[string]any{"b": 1, "a": map[string]any{"y": 2.5, "x": "s"}, "l": []any{map[string]any{"k": "v"}, 1}}
	d := docOf(m)
	for _, verb := range []string{"%v", "%+v", "%q", "%d", "%s"} {
		if got, want := fmt.Sprintf(verb, d), fmt.Sprintf(verb, m); got != want {
			t.Errorf("%s: got %s, want %s", verb, got, want)
		}
	}
	if got := fmt.Sprint(Doc{}); got != "map[]" {
		t.Errorf("zero Doc prints %q", got)
	}
}

// Lookup runs per candidate and leg of every listing render and per
// registration an event reaches: none of its paths may allocate, the
// fallback to the store ID included (the ID is boxed once, in NewDoc).
func TestDocLookupZeroAlloc(t *testing.T) {
	d := NewDoc("p00042", map[string]any{
		"category": "shoes", "name": "n", "price": 9.5, "stock": int64(3),
		"meta": map[string]any{"dim": map[string]any{"w": 2.0}},
	})
	var sink any
	for _, path := range []string{"price", "meta.dim.w", "id", "absent"} {
		if n := testing.AllocsPerRun(200, func() { sink, _ = d.Lookup(path) }); n != 0 {
			t.Errorf("Lookup(%q) allocates %.1f times", path, n)
		}
	}
	_ = sink
}
