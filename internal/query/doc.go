package query

import (
	"fmt"
	"slices"
	"strings"
)

// Doc is an immutable document: the ID it is stored under and its fields
// in key order, each value a scalar, a nested Doc or a list of those. It
// is built once, by NewDoc or Merge, from a map the caller keeps; after
// that nothing can change it — the fields are unexported and every way
// out hands over either a scalar or a fresh copy — so the store, its
// readers and its change events share one value without cloning it.
//
// A Doc is one pointer wide. The zero Doc is "no document": the Before of
// an insert, the After of a delete. It is distinct from an empty document,
// has no fields and matches what a predicate says about absent fields.
type Doc struct{ d *frozen }

type frozen struct {
	// id is the store ID, boxed once so that Lookup("id") can hand it out
	// without allocating; nil when the document has none (a nested
	// document, or one that was never stored).
	id     any
	fields []field // sorted by key
}

type field struct {
	key string
	val any
}

// NewDoc freezes fields, at every level of nesting, into the document
// stored under id. It is the one constructor; the map stays the caller's
// and later changes to it, however deep, do not reach the Doc. An empty
// id means the document has none.
func NewDoc(id string, fields map[string]any) Doc {
	out := make([]field, 0, len(fields))
	for k, v := range fields {
		out = append(out, field{k, freeze(v)})
	}
	return newDoc(boxID(id), out)
}

func boxID(id string) any {
	if id == "" {
		return nil
	}
	return id
}

func newDoc(id any, fields []field) Doc {
	slices.SortFunc(fields, func(a, b field) int { return strings.Compare(a.key, b.key) })
	return Doc{&frozen{id: id, fields: fields}}
}

// freeze returns v with every map below it frozen and every list copied.
// A Doc is frozen already; anything else is a scalar and kept as it is.
func freeze(v any) any {
	switch x := v.(type) {
	case map[string]any:
		return NewDoc("", x)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = freeze(e)
		}
		return out
	}
	return v
}

// thaw is freeze's inverse: maps and lists the caller may write to.
func thaw(v any) any {
	switch x := v.(type) {
	case Doc:
		return x.Map()
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = thaw(e)
		}
		return out
	}
	return v
}

// IsZero reports whether d is "no document".
func (d Doc) IsZero() bool { return d.d == nil }

// ID returns the ID the document is stored under, "" when it has none.
func (d Doc) ID() string {
	if d.d == nil {
		return ""
	}
	id, _ := d.d.id.(string)
	return id
}

// Len returns the number of fields.
func (d Doc) Len() int {
	if d.d == nil {
		return 0
	}
	return len(d.d.fields)
}

// Field returns the i-th field in key order, 0 <= i < Len.
func (d Doc) Field(i int) (key string, value any) {
	f := &d.d.fields[i]
	return f.key, f.val
}

// Map returns a deep copy of the fields as maps and lists, for a caller
// that wants to change them. The store ID is not a field and is not in it.
func (d Doc) Map() map[string]any {
	if d.d == nil {
		return nil
	}
	m := make(map[string]any, len(d.d.fields))
	for _, f := range d.d.fields {
		m[f.key] = thaw(f.val)
	}
	return m
}

// Merge returns the document d becomes under a partial update: a field in
// patch replaces or adds to d's, a nil value removes it. The ID carries
// over; d is unchanged.
func (d Doc) Merge(patch map[string]any) Doc {
	var id any
	out := make([]field, 0, d.Len()+len(patch))
	if d.d != nil {
		id = d.d.id
		for _, f := range d.d.fields {
			if _, patched := patch[f.key]; !patched {
				out = append(out, f)
			}
		}
	}
	for k, v := range patch {
		if v != nil {
			out = append(out, field{k, freeze(v)})
		}
	}
	return newDoc(id, out)
}

// Lookup resolves a possibly dotted field path ("price" or "meta.tag")
// the way every comparison does; the store's and the invalidation
// engine's indexes read documents through it, so their keys and a
// predicate's operands never disagree on what a path names. The name
// "id" reads the store ID when the document has no field called that, so
// a predicate on id sees the same value wherever the document turns up —
// a query row, a Get, a change event's image.
func (d Doc) Lookup(path string) (any, bool) {
	for {
		if d.d == nil {
			return nil, false
		}
		part, rest := path, ""
		dot := strings.IndexByte(path, '.')
		if dot >= 0 {
			part, rest = path[:dot], path[dot+1:]
		}
		v, ok := d.d.get(part)
		if !ok || dot < 0 {
			return v, ok
		}
		if d, ok = v.(Doc); !ok {
			return nil, false
		}
		path = rest
	}
}

func (f *frozen) get(key string) (any, bool) {
	for i := range f.fields {
		if f.fields[i].key == key {
			return f.fields[i].val, true
		}
	}
	if key == "id" && f.id != nil {
		return f.id, true
	}
	return nil, false
}

// Format prints the document as the map it was frozen from would print,
// under every verb: page bodies render nested documents with %v, and
// those bytes are what the caches hold.
func (d Doc) Format(s fmt.State, verb rune) {
	fmt.Fprintf(s, fmt.FormatString(s, verb), d.Map())
}
