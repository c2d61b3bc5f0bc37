package query

import (
	"testing"
	"testing/quick"
)

var productDoc = docOf(map[string]any{
	"id":       "p1",
	"name":     "Trail Runner",
	"category": "shoes",
	"price":    89.90,
	"stock":    int64(12),
	"active":   true,
	"meta":     map[string]any{"brand": "Acme", "rating": 4.5},
})

func TestCmpOperators(t *testing.T) {
	cases := []struct {
		name string
		p    Predicate
		want bool
	}{
		{"eq string", Eq("category", "shoes"), true},
		{"eq string miss", Eq("category", "hats"), false},
		{"eq cross-numeric", Eq("stock", 12), true},
		{"eq float-int", Eq("price", 89.90), true},
		{"ne present", Ne("category", "hats"), true},
		{"ne equal", Ne("category", "shoes"), false},
		{"ne missing field matches", Ne("color", "red"), true},
		{"gt", Gt("price", 50), true},
		{"gt false", Gt("price", 100), false},
		{"gte boundary", Gte("price", 89.90), true},
		{"lt", Lt("stock", 100), true},
		{"lte boundary", Lte("stock", 12), true},
		{"lt missing field", Lt("nope", 1), false},
		{"gt non-comparable", Gt("name", 5), false},
		{"in hit", In("category", "hats", "shoes"), true},
		{"in miss", In("category", "hats", "belts"), false},
		{"in missing field", In("nope", "x"), false},
		{"exists", Exists("meta"), true},
		{"exists miss", Exists("nope"), false},
		{"prefix", Prefix("name", "Trail"), true},
		{"prefix miss", Prefix("name", "Road"), false},
		{"prefix non-string", Prefix("price", "8"), false},
		{"contains", Contains("name", "ail Ru"), true},
		{"contains miss", Contains("name", "xyz"), false},
		{"dotted path", Eq("meta.brand", "Acme"), true},
		{"dotted path gt", Gt("meta.rating", 4), true},
		{"dotted path missing", Eq("meta.nope", 1), false},
		{"dotted through scalar", Eq("name.x", 1), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.p.Match(productDoc); got != c.want {
				t.Fatalf("%s.Match = %v, want %v", c.p.Canonical(), got, c.want)
			}
		})
	}
}

func TestJunctions(t *testing.T) {
	p := And{Eq("category", "shoes"), Lt("price", 100)}
	if !p.Match(productDoc) {
		t.Fatal("AND should match")
	}
	p2 := And{Eq("category", "shoes"), Gt("price", 100)}
	if p2.Match(productDoc) {
		t.Fatal("AND with false leg matched")
	}
	o := Or{Eq("category", "hats"), Eq("category", "shoes")}
	if !o.Match(productDoc) {
		t.Fatal("OR should match")
	}
	o2 := Or{Eq("category", "hats"), Eq("category", "belts")}
	if o2.Match(productDoc) {
		t.Fatal("OR with no true leg matched")
	}
	if !(Not{P: o2}).Match(productDoc) {
		t.Fatal("NOT failed")
	}
	if !(And{}).Match(productDoc) {
		t.Fatal("empty AND must match everything")
	}
	if (Or{}).Match(productDoc) {
		t.Fatal("empty OR must match nothing")
	}
	if !(True{}).Match(Doc{}) {
		t.Fatal("True must match nil doc")
	}
}

func TestMatchNilDoc(t *testing.T) {
	if Eq("x", 1).Match(Doc{}) {
		t.Fatal("Eq matched nil doc")
	}
	if !Ne("x", 1).Match(Doc{}) {
		t.Fatal("Ne must match nil doc (field absent)")
	}
}

func TestCanonicalSortsOperands(t *testing.T) {
	a := And{Eq("a", 1), Eq("b", 2)}
	b := And{Eq("b", 2), Eq("a", 1)}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("permuted ANDs differ: %s vs %s", a.Canonical(), b.Canonical())
	}
	i1 := In("f", "x", "y")
	i2 := In("f", "y", "x")
	if i1.Canonical() != i2.Canonical() {
		t.Fatalf("permuted INs differ: %s vs %s", i1.Canonical(), i2.Canonical())
	}
}

func TestCanonicalDistinguishes(t *testing.T) {
	pairs := [][2]Predicate{
		{Eq("a", 1), Eq("a", 2)},
		{Eq("a", 1), Ne("a", 1)},
		{Gt("a", 1), Gte("a", 1)},
		{Eq("a", "1"), Eq("a", 1)}, // string vs number must differ
		{And{Eq("a", 1)}, Or{Eq("a", 1)}},
	}
	for _, pr := range pairs {
		if pr[0].Canonical() == pr[1].Canonical() {
			t.Errorf("distinct predicates share canonical form: %s", pr[0].Canonical())
		}
	}
}

func TestFieldsCollection(t *testing.T) {
	p := And{Eq("a", 1), Or{Gt("b", 2), Not{P: Exists("c.d")}}}
	got := map[string]struct{}{}
	p.Fields(got)
	for _, f := range []string{"a", "b", "c.d"} {
		if _, ok := got[f]; !ok {
			t.Errorf("missing field %s", f)
		}
	}
	if len(got) != 3 {
		t.Errorf("extra fields: %v", got)
	}
}

func TestNumericCoercionProperty(t *testing.T) {
	// Property: for any int64 v, a doc {x: v} matches Eq("x", float64(v))
	// and ordering predicates behave consistently with float comparison.
	f := func(v int32, w int32) bool {
		doc := map[string]any{"x": int64(v)}
		if !Eq("x", float64(v)).Match(docOf(doc)) {
			return false
		}
		gt := Gt("x", int64(w)).Match(docOf(doc))
		return gt == (v > w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalForms(t *testing.T) {
	cases := []struct {
		p    Predicate
		want string
	}{
		{Eq("a", "x"), `a = "x"`},
		{Eq("a", nil), `a = null`},
		{Eq("a", true), `a = true`},
		{Eq("a", int64(5)), `a = 5`},
		{Eq("a", 2.5), `a = 2.5`},
		{Exists("f"), `EXISTS(f)`},
		{Prefix("f", "p"), `f PREFIX "p"`},
		{Contains("f", "s"), `f CONTAINS "s"`},
		{Not{P: Eq("a", 1)}, `NOT(a = 1)`},
		{True{}, `TRUE`},
		{And{}, `TRUE`},
		{Or{}, `FALSE`},
		{Or{Eq("a", 1), Eq("b", 2)}, `OR(a = 1;b = 2)`},
	}
	for _, c := range cases {
		if got := c.p.Canonical(); got != c.want {
			t.Errorf("Canonical = %q, want %q", got, c.want)
		}
	}
}

func TestOrNotTrueFields(t *testing.T) {
	got := map[string]struct{}{}
	Or{Eq("a", 1), Not{P: Eq("b", 2)}}.Fields(got)
	(True{}).Fields(got)
	if len(got) != 2 {
		t.Fatalf("fields = %v", got)
	}
}

func TestNumericCoercionAllWidths(t *testing.T) {
	doc := map[string]any{
		"i": int(1), "i8": int8(1), "i16": int16(1), "i32": int32(1), "i64": int64(1),
		"u": uint(1), "u8": uint8(1), "u16": uint16(1), "u32": uint32(1), "u64": uint64(1),
		"f32": float32(1), "f64": float64(1),
	}
	for field := range doc {
		if !Eq(field, 1.0).Match(docOf(doc)) {
			t.Errorf("Eq(%s, 1.0) failed across width coercion", field)
		}
		if !Gte(field, 1).Match(docOf(doc)) || Lt(field, 1).Match(docOf(doc)) {
			t.Errorf("ordering on %s wrong", field)
		}
	}
	// Non-numeric vs numeric never equal.
	if Eq("s", 1).Match(docOf(map[string]any{"s": "1"})) {
		t.Error("string '1' equals number 1")
	}
	if Eq("b", 1).Match(docOf(map[string]any{"b": true})) {
		t.Error("bool equals number")
	}
}

func TestOpStringUnknown(t *testing.T) {
	if Op(99).String() == "" {
		t.Fatal("unknown op renders empty")
	}
	if OpEq.String() != "=" {
		t.Fatalf("OpEq = %q", OpEq.String())
	}
}
