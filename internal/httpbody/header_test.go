package httpbody

import (
	"net/url"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestParseETag(t *testing.T) {
	cases := []struct {
		in string
		v  uint64
		ok bool
	}{
		{`"v1"`, 1, true},
		{`"v42"`, 42, true},
		{`"v123"`, 123, true},
		{`W/"v7"`, 7, true},
		{` "v2" `, 2, true},
		{`"v18446744073709551615"`, 1<<64 - 1, true},
		{`"v18446744073709551616"`, 0, false},
		{`"x1"`, 0, false},
		{`"x"`, 0, false},
		{`"v"`, 0, false},
		{`"vabc"`, 0, false},
		{`"v+1"`, 0, false},
		{`"v1_0"`, 0, false},
		{``, 0, false},
	}
	for _, c := range cases {
		v, ok := ParseETag(c.in)
		if v != c.v || ok != c.ok {
			t.Errorf("ParseETag(%q) = %d,%v want %d,%v", c.in, v, ok, c.v, c.ok)
		}
	}
	for _, v := range []uint64{0, 7, 1<<64 - 1} {
		if got, ok := ParseETag(ETag(v)); !ok || got != v {
			t.Errorf("ParseETag(ETag(%d)) = %d,%v", v, got, ok)
		}
	}
	if got := ETag(42); got != `"v42"` {
		t.Errorf("ETag(42) = %s", got)
	}
}

func TestMatchETag(t *testing.T) {
	for _, c := range []struct {
		inm  string
		want bool
	}{
		{`"v3"`, true},
		{`W/"v3"`, true},
		{` * `, true},
		{`"v1", "v3"`, true},
		{`"v1",W/"v3" `, true},
		{`"v1"`, false},
		{`"v33"`, false},
		{``, false},
	} {
		if got := MatchETag(c.inm, `"v3"`); got != c.want {
			t.Errorf("MatchETag(%q) = %v, want %v", c.inm, got, c.want)
		}
	}
}

// TestHeaderParsersAllocateNothing: ETag parsing and matching run on
// every conditional request and every fill, at the edge and on the
// device, and PathParam on every page request; only unescaping a path
// allocates.
func TestHeaderParsersAllocateNothing(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		ParseETag(`W/"v123456"`)
		ParseETag(`"vnope"`)
		MatchETag(`"v1", W/"v2", "v3"`, `"v3"`)
		PathParam("v=1&path=/product/p00042")
	})
	if n != 0 {
		t.Fatalf("the header parsers allocate %.0f, want 0", n)
	}
}

// oldParseETag and oldMatchETag are the parsers ParseETag and MatchETag
// replaced: the fuzz oracles.
func oldParseETag(tag string) (uint64, bool) {
	tag = strings.Trim(strings.TrimPrefix(strings.TrimSpace(tag), "W/"), `"`)
	if !strings.HasPrefix(tag, "v") {
		return 0, false
	}
	v, err := strconv.ParseUint(tag[1:], 10, 64)
	return v, err == nil
}

func oldMatchETag(inm, etag string) bool {
	if inm == "" {
		return false
	}
	strip := func(s string) string { return strings.TrimPrefix(strings.TrimSpace(s), "W/") }
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	want := strip(etag)
	for _, cand := range strings.Split(inm, ",") {
		if strip(cand) == want {
			return true
		}
	}
	return false
}

// FuzzETag: the ETag codec reads back every version it renders, parses
// every string as the strconv parser it replaced did (a refusal reads 0,
// where strconv's overflow reads the largest uint64), and matches every
// If-None-Match value as the strings.Split loop it replaced did.
func FuzzETag(f *testing.F) {
	f.Add(uint64(3), `"v3"`, `"v3"`)
	f.Add(uint64(1<<64-1), `W/"v1", "v2"`, `"v2"`)
	f.Add(uint64(0), `*`, `"v0"`)
	f.Add(uint64(9), `,`, ``)
	f.Add(uint64(9), `"v99999999999999999999"`, `W/ "v1"`)
	f.Fuzz(func(t *testing.T, v uint64, tag, etag string) {
		if got, ok := ParseETag(ETag(v)); !ok || got != v {
			t.Fatalf("ParseETag(ETag(%d)) = %d,%v", v, got, ok)
		}
		got, ok := ParseETag(tag)
		if want, wantOK := oldParseETag(tag); ok != wantOK || (ok && got != want) || (!ok && got != 0) {
			t.Fatalf("ParseETag(%q) = %d,%v; strconv reads %d,%v", tag, got, ok, want, wantOK)
		}
		if got, want := MatchETag(tag, etag), oldMatchETag(tag, etag); got != want {
			t.Fatalf("MatchETag(%q, %q) = %v; the split loop says %v", tag, etag, got, want)
		}
	})
}

// pathParamSeeds are the queries FuzzPathParam starts from, and checks
// on every go test run: escaped paths, ';', duplicate keys, bad %
// escapes, '+', empty values and escaped keys.
var pathParamSeeds = []string{
	"path=/p",
	"path=%2Fproduct%2Fp00001",
	"path=/a+b",
	"path=/a%20b&path=/second",
	"x=1&path=/p&y=2",
	"path=",
	"path&path=/p",
	"path=&path=/p",
	"path=%zz&path=/ok",
	"path=/p;x&path=/q",
	"a=1;path=/p",
	"p%61th=/escaped-key",
	"p%zzth=/bad-key&path=/p",
	"pa+th=/plus-key",
	"&&path=/after-empties",
	"=/no-key&path=/p",
	"path%3D/p",
	"",
}

// queryPath is what PathParam replaced: the oracle.
func queryPath(raw string) string {
	v, _ := url.ParseQuery(raw)
	return v.Get("path")
}

// FuzzPathParam: PathParam reads every raw query as
// url.ParseQuery(raw).Get("path") does.
// Every string sent as QueryValue renders it reads back as itself, by
// PathParam and by url.ParseQuery, and one made only of query-literal
// bytes is sent as it is, at no allocation.
func FuzzPathParam(f *testing.F) {
	for _, raw := range pathParamSeeds {
		f.Add(raw)
	}
	f.Add("/product/p00001?view=full:a@b~c")
	f.Fuzz(func(t *testing.T, raw string) {
		if got, want := PathParam(raw), queryPath(raw); got != want {
			t.Fatalf("PathParam(%q) = %q, url.ParseQuery reads %q", raw, got, want)
		}
		p := raw
		q := "path=" + QueryValue(p)
		if got := PathParam(q); got != p {
			t.Fatalf("PathParam(%q) = %q, sent %q", q, got, p)
		}
		if got := queryPath(q); got != p {
			t.Fatalf("url.ParseQuery(%q) reads %q, sent %q", q, got, p)
		}
		if !literal(p) {
			return
		}
		if v := QueryValue(p); v != p {
			t.Fatalf("QueryValue(%q) = %q: a literal value was escaped", p, v)
		}
		if n := testing.AllocsPerRun(10, func() { sinkString = QueryValue(p) }); n != 0 {
			t.Fatalf("QueryValue(%q) allocates %.0f, want 0", p, n)
		}
	})
}

// literal reports whether every byte of s is one RFC 3986 §3.4 lets stand
// in a query value and QueryValue sends as it is: the unreserved bytes and
// '/', '?', ':', '@'.
func literal(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("-._~/?:@", c) >= 0) {
			return false
		}
	}
	return true
}

var sinkString string

// TestQueryValueEscapesDelimiters: a byte that would end the value, start
// another or change what it reads as is escaped, and the path's own
// separators are not.
func TestQueryValueEscapesDelimiters(t *testing.T) {
	cases := map[string]string{
		"/product/p00001": "/product/p00001",
		"/search?q=a:b@c": "%2Fsearch%3Fq%3Da%3Ab%40c",
		"/a?b:c@d":        "/a?b:c@d",
		"/a&path=/b":      "%2Fa%26path%3D%2Fb",
		"/a b+c;d#e%":     "%2Fa+b%2Bc%3Bd%23e%25",
		"/caf\u00e9":      "%2Fcaf%C3%A9",
		"":                "",
	}
	for in, want := range cases {
		if got := QueryValue(in); got != want {
			t.Errorf("QueryValue(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPathParamOwned: a path that was unescaped has memory of its own, and
// one that was not is a window onto the query, read at no allocation.
func TestPathParamOwned(t *testing.T) {
	for _, c := range []struct {
		raw   string
		owned bool
	}{
		{"path=/product/p00001", false},
		{"path=%2Fproduct%2Fp00001", true},
	} {
		var got string
		var owned bool
		n := testing.AllocsPerRun(100, func() { got, owned = PathParamOwned(c.raw) })
		if got != "/product/p00001" || owned != c.owned {
			t.Fatalf("PathParamOwned(%q) = %q, %v; want /product/p00001, %v", c.raw, got, owned, c.owned)
		}
		start := uintptr(unsafe.Pointer(unsafe.StringData(c.raw)))
		at := uintptr(unsafe.Pointer(unsafe.StringData(got)))
		if window := at >= start && at < start+uintptr(len(c.raw)); window == owned {
			t.Fatalf("PathParamOwned(%q) reads owned %v for a path that is a window onto the query: %v", c.raw, owned, window)
		}
		if want := map[bool]float64{false: 0, true: 1}[c.owned]; n != want {
			t.Fatalf("PathParamOwned(%q) allocates %.0f, want %.0f", c.raw, n, want)
		}
	}
}
