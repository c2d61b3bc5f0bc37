package query

import (
	"strings"
	"testing"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse(`products WHERE category = "shoes" AND price < 100 ORDER BY price LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Collection != "products" || q.SortField != "price" || q.Descending || q.Limit != 10 {
		t.Fatalf("unexpected query: %+v", q)
	}
	if !q.Match(docOf(map[string]any{"category": "shoes", "price": 50})) {
		t.Fatal("parsed filter does not match expected doc")
	}
	if q.Match(docOf(map[string]any{"category": "shoes", "price": 150})) {
		t.Fatal("parsed filter matched out-of-range doc")
	}
}

func TestParseNoWhere(t *testing.T) {
	q, err := Parse("products")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Match(docOf(map[string]any{"x": 1})) {
		t.Fatal("collection scan should match everything")
	}
}

func TestParseOrNotParens(t *testing.T) {
	q := MustParse(`a WHERE x = 1 OR NOT (y = 2 AND z = 3)`)
	cases := []struct {
		doc  map[string]any
		want bool
	}{
		{map[string]any{"x": 1, "y": 9, "z": 9}, true},
		{map[string]any{"x": 0, "y": 2, "z": 3}, false},
		{map[string]any{"x": 0, "y": 2, "z": 9}, true},
	}
	for i, c := range cases {
		if got := q.Match(docOf(c.doc)); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestParsePrecedenceAndBindsTighter(t *testing.T) {
	// x=1 OR y=2 AND z=3 must parse as x=1 OR (y=2 AND z=3).
	q := MustParse(`a WHERE x = 1 OR y = 2 AND z = 3`)
	if !q.Match(docOf(map[string]any{"x": 1})) {
		t.Fatal("left OR leg failed")
	}
	if q.Match(docOf(map[string]any{"y": 2})) {
		t.Fatal("AND must bind tighter than OR")
	}
	if !q.Match(docOf(map[string]any{"y": 2, "z": 3})) {
		t.Fatal("right AND leg failed")
	}
}

func TestParseInExistsPrefixContains(t *testing.T) {
	q := MustParse(`users WHERE id IN ["u1", "u2"] AND EXISTS(email) AND name PREFIX "Al" AND bio CONTAINS "go"`)
	doc := map[string]any{"id": "u2", "email": "a@b.c", "name": "Alice", "bio": "loves golang"}
	if !q.Match(docOf(doc)) {
		t.Fatal("composite filter should match")
	}
	delete(doc, "email")
	if q.Match(docOf(doc)) {
		t.Fatal("EXISTS leg ignored")
	}
}

func TestParseValueTypes(t *testing.T) {
	q := MustParse(`c WHERE a = 5 AND b = 2.5 AND t = true AND f = false AND n = null AND neg = -3`)
	doc := map[string]any{"a": int64(5), "b": 2.5, "t": true, "f": false, "n": nil, "neg": int64(-3)}
	if !q.Match(docOf(doc)) {
		t.Fatal("typed values failed to match")
	}
}

func TestParseEmptyIn(t *testing.T) {
	q := MustParse(`c WHERE a IN []`)
	if q.Match(docOf(map[string]any{"a": 1})) {
		t.Fatal("empty IN matched")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse(`products where price > 1 order by price desc limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Descending || q.Limit != 5 {
		t.Fatalf("lowercase keywords mishandled: %+v", q)
	}
}

func TestParseStringEscapes(t *testing.T) {
	q := MustParse(`c WHERE s = "he said \"hi\""`)
	if !q.Match(docOf(map[string]any{"s": `he said "hi"`})) {
		t.Fatal("escaped string mismatched")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`WHERE x = 1`,              // WHERE is consumed as collection; then x is trailing
		`c WHERE`,                  // missing predicate
		`c WHERE x`,                // missing operator
		`c WHERE x = `,             // missing value
		`c WHERE x ~ 1`,            // bad operator
		`c WHERE x = "unclosed`,    // unterminated string
		`c WHERE (x = 1`,           // unclosed paren
		`c WHERE EXISTS x`,         // EXISTS needs parens
		`c WHERE x IN "not-a-set"`, // IN needs [
		`c ORDER price`,            // ORDER without BY... actually ORDER is trailing ident
		`c LIMIT nope`,             // bad limit
		`c LIMIT -1`,               // negative limit is lexed as number; Atoi ok but <0 rejected
		`c WHERE x = 1 garbage`,    // trailing tokens
		`c WHERE x = -`,            // bare minus
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorMentionsInput(t *testing.T) {
	_, err := Parse(`c WHERE x ~ 1`)
	if err == nil || !strings.Contains(err.Error(), "c WHERE x ~ 1") {
		t.Fatalf("error should cite input: %v", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse(`c WHERE broken ~`)
}

func TestParseRoundTripCanonicalEquivalence(t *testing.T) {
	// Queries that differ only in operand order must share an ID.
	a := MustParse(`p WHERE a = 1 AND b = 2`)
	b := MustParse(`p WHERE b = 2 AND a = 1`)
	if a.ID() != b.ID() {
		t.Fatalf("IDs differ: %s vs %s", a.ID(), b.ID())
	}
}

func TestParseDottedAndSlashedIdents(t *testing.T) {
	q := MustParse(`c WHERE meta.brand = "Acme" AND path PREFIX "/products/"`)
	doc := map[string]any{
		"meta": map[string]any{"brand": "Acme"},
		"path": "/products/42",
	}
	if !q.Match(docOf(doc)) {
		t.Fatal("dotted/slashed identifiers mishandled")
	}
}

// FuzzParse feeds the query parser any text: no panic, a query it
// accepts names its collection, and parsing the same text again gives the
// same cache key (ID), so no state leaks from one parse into the next.
//
// Seeds live in testdata/fuzz/FuzzParse: Parse's doc examples and a bare
// collection.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if q.Collection == "" {
			t.Fatalf("%q parsed with no collection: %+v", src, q)
		}
		again, err := Parse(src)
		if err != nil {
			t.Fatalf("%q parsed once, then failed: %v", src, err)
		}
		if q.ID() != again.ID() {
			t.Fatalf("%q parsed to %s, then to %s", src, q.ID(), again.ID())
		}
	})
}
