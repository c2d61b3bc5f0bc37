package httpbody

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// ETag renders a page version as the strong validator every tier states
// and sends back: `"v<n>"`.
func ETag(version uint64) string {
	var b [24]byte
	return string(AppendETag(b[:0], version))
}

// AppendETag appends ETag(version) to b.
func AppendETag(b []byte, version uint64) []byte {
	b = strconv.AppendUint(append(b, `"v`...), version, 10)
	return append(b, '"')
}

// SetValues states names[i] in h with vals[i] for every value that is not
// "". The values are shared, not copied: each header is a window onto its
// element of vals with len == cap, so vals is the one allocation an
// answer's values take, and a header a handler adds to later reallocates
// instead of writing into the next element. Nothing may write vals after.
func SetValues(h http.Header, names, vals []string) {
	for i, v := range vals {
		if v != "" {
			h[names[i]] = vals[i : i+1 : i+1]
		}
	}
}

// ParseETag reads the version back from an ETag or an If-None-Match value
// in ETag's form. Surrounding space, a W/ prefix and the quotes are
// ignored; anything else that is not "v" and a decimal uint64 is false. It
// allocates nothing, refusals included.
//
//speedkit:hotpath
func ParseETag(tag string) (uint64, bool) {
	tag = strings.Trim(strings.TrimPrefix(strings.TrimSpace(tag), "W/"), `"`)
	digits, ok := strings.CutPrefix(tag, "v")
	if !ok || digits == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(digits); i++ {
		d := uint64(digits[i] - '0')
		if d > 9 || v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// MatchETag reports whether an If-None-Match value names etag, by weak
// comparison (a W/ prefix on either side is ignored): "*", or one of its
// comma-separated tags. It allocates nothing.
//
//speedkit:hotpath
func MatchETag(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	want := weak(etag)
	for rest := ifNoneMatch; ; {
		tag, tail, more := strings.Cut(rest, ",")
		if weak(tag) == want {
			return true
		}
		if !more {
			return false
		}
		rest = tail
	}
}

// weak is an entity tag as weak comparison sees it.
//
//speedkit:hotpath
func weak(tag string) string { return strings.TrimPrefix(strings.TrimSpace(tag), "W/") }

// PathParam returns the page path a raw query names:
// url.ParseQuery(rawQuery).Get("path"), without the map. It walks the
// &-separated pairs as ParseQuery does — a pair holding ';' or a bad %
// escape is skipped, a bare key has the empty value — and returns the
// value of the first pair whose key unescapes to "path". Only unescaping
// allocates: a value with nothing to unescape is a window onto rawQuery,
// so a caller that keeps it keeps the whole request line (see
// PathParamOwned).
func PathParam(rawQuery string) string {
	v, _ := PathParamOwned(rawQuery)
	return v
}

// PathParamOwned is PathParam, also reporting whether the path has memory
// of its own: it was unescaped (url.QueryUnescape hands back a value with
// no '%' and no '+' as it is). A caller that stores a path not owned
// copies it first.
func PathParamOwned(rawQuery string) (path string, owned bool) {
	for rest := rawQuery; rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if key != "path" {
			if !strings.Contains(key, "%") {
				continue // unescaping turns only %XX into "path"'s letters
			}
			if k, err := url.QueryUnescape(key); err != nil || k != "path" {
				continue
			}
		}
		if v, err := url.QueryUnescape(value); err == nil {
			return v, strings.ContainsAny(value, "%+")
		}
	}
	return "", false
}

// QueryValue renders s for a query value: s itself when every byte may
// stand there unescaped, url.QueryEscape(s) otherwise. RFC 3986 §3.4 lets
// '/', '?', ':' and '@' stand in a query beside the unreserved bytes, so a
// page path crosses a hop as it is written, and the receiver's PathParam
// has nothing to unescape. '&', '+', '=', ';', '#', '%', space and every
// other byte are escaped: they would end, or change, the value.
func QueryValue(s string) string {
	for i := 0; i < len(s); i++ {
		if !queryLiteral(s[i]) {
			return url.QueryEscape(s)
		}
	}
	return s
}

// queryLiteral reports whether c stands unescaped in a query value.
func queryLiteral(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	switch c {
	case '-', '.', '_', '~', '/', '?', ':', '@':
		return true
	}
	return false
}
