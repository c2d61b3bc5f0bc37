package cachesketch

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzReadHTTP feeds ReadHTTP a sketch response a hostile or broken
// upstream could send: the generation, epoch, Age and Cache-Control values
// and the body. Whatever arrives: no panic, and nothing reserved on the
// strength of a header field the body does not back. A response it
// accepts is dated no later than the send, answers a lookup in bounded
// time, and goes out again through WriteHTTP as it came in: the same body,
// and headers that read back to the same snapshot.
//
// Seeds live in testdata/fuzz/FuzzReadHTTP: a well-formed response at age
// 0 and held by a cache, the m = 0 and k = 2³²−1 filters that once decoded
// and then crashed or hung their holder, an m that wrapped the word count,
// and a missing, a worded and a 65-bit epoch.
func FuzzReadHTTP(f *testing.F) {
	f.Fuzz(func(t *testing.T, generation, epoch, age, cacheControl string, body []byte) {
		respond := func() *http.Response {
			resp := &http.Response{
				StatusCode:    http.StatusOK,
				Header:        http.Header{GenerationHeader: {generation}},
				Body:          io.NopCloser(bytes.NewReader(body)),
				ContentLength: int64(len(body)),
			}
			if epoch != "" {
				resp.Header.Set(EpochHeader, epoch)
			}
			if age != "" {
				resp.Header.Set("Age", age)
			}
			if cacheControl != "" {
				resp.Header.Set("Cache-Control", cacheControl)
			}
			return resp
		}
		sent := time.Unix(1_000_000, 0)
		sn, err := ReadHTTP(respond(), sent)
		if err != nil {
			return
		}
		if sn.TakenAt.After(sent) {
			t.Fatalf("TakenAt %v is after the send %v (Age %q)", sn.TakenAt, sent, age)
		}
		if got := 13 + sn.Filter.SizeBytes(); got != len(body) {
			t.Fatalf("a %d-byte body decoded into a filter of %d bytes", len(body), got)
		}
		if sn.Filter.Bits() < 64 || sn.Filter.Hashes() < 1 || sn.Filter.Hashes() > 32 {
			t.Fatalf("accepted m=%d k=%d", sn.Filter.Bits(), sn.Filter.Hashes())
		}
		sn.MightBeStale("/written")

		w := httptest.NewRecorder()
		if err := sn.WriteHTTP(w, cacheControl, sn.Age(sent)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), body) {
			t.Fatal("the body written is not the body read")
		}
		again, err := ReadHTTP(w.Result(), sent)
		if err != nil {
			t.Fatalf("what WriteHTTP wrote does not read back: %v", err)
		}
		if again.Generation != sn.Generation || again.Epoch != sn.Epoch || !again.TakenAt.Equal(sn.TakenAt) || again.MaxAge != sn.MaxAge {
			t.Fatalf("read back generation %d, epoch %x, TakenAt %v, MaxAge %v; sent %d, %x, %v, %v",
				again.Generation, again.Epoch, again.TakenAt, again.MaxAge, sn.Generation, sn.Epoch, sn.TakenAt, sn.MaxAge)
		}
	})
}

// FuzzPageEpoch feeds PageEpoch any X-Sketch-Epoch value a page answer can
// carry. Whatever arrives: no panic; the value the server states for an
// epoch reads back as that epoch; and a value that is not one to sixteen
// significant hex digits reads as 0, the epoch no sketch carries, so the
// copy it came with is revalidated once rather than trusted.
func FuzzPageEpoch(f *testing.F) {
	for _, seed := range []struct {
		e uint64
		v string
	}{
		{0x0123456789abcdef, "0123456789abcdef"},
		{1, "ABCDEF0123456789"},
		{^uint64(0), "1ffffffffffffffff"},
		{0, "0x1f"},
		{0, "+1f"},
		{0, "1_f"},
		{0, ""},
		{0, "00000000000000000000000000000001"},
	} {
		f.Add(seed.e, seed.v)
	}
	f.Fuzz(func(t *testing.T, e uint64, v string) {
		if got := PageEpoch(http.Header{EpochHeader: EpochValue(e)}); got != e {
			t.Fatalf("epoch %x stated as %q reads back as %x", e, EpochValue(e)[0], got)
		}
		want, ok := hexEpoch(v)
		if !ok {
			want = 0
		}
		if got := PageEpoch(http.Header{EpochHeader: {v}}); got != want {
			t.Fatalf("PageEpoch(%q) = %x, want %x", v, got, want)
		}
		if got := PageEpoch(http.Header{}); got != 0 {
			t.Fatalf("an answer that states no epoch reads as %x", got)
		}
	})
}

// hexEpoch is the reference reading of an epoch value: one or more hex
// digits, of either case, worth less than 2⁶⁴.
func hexEpoch(v string) (uint64, bool) {
	if v == "" {
		return 0, false
	}
	var e uint64
	for i := 0; i < len(v); i++ {
		c := v[i]
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if e>>60 != 0 {
			return 0, false
		}
		e = e<<4 | d
	}
	return e, true
}
