package httpbody

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fetch GETs the handler's answer over a real connection, so the body is
// the one net/http's transport builds.
func fetch(t *testing.T, h http.HandlerFunc) *http.Response {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestReadAllSizedBodyIsOneExactAllocation(t *testing.T) {
	want := bytes.Repeat([]byte("sketch"), 1302) // 7812 bytes, past net/http's own sizing
	resp := fetch(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		w.Write(want)
	})
	if resp.ContentLength != int64(len(want)) {
		t.Fatalf("ContentLength = %d, want %d", resp.ContentLength, len(want))
	}
	got, err := ReadAll(resp)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadAll: err=%v, %d bytes, want %d", err, len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("cap %d over len %d: the buffer was grown, not reserved", cap(got), len(got))
	}
	// The read that filled the buffer also saw the end of the stream.
	if n, err := resp.Body.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("body after ReadAll: n=%d err=%v, want 0, EOF", n, err)
	}
}

func TestReadAllChunkedBody(t *testing.T) {
	want := bytes.Repeat([]byte("page"), 5000)
	resp := fetch(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write(want[:100])
		w.(http.Flusher).Flush()
		w.Write(want[100:])
	})
	if resp.ContentLength != -1 {
		t.Fatalf("ContentLength = %d, want -1 (chunked)", resp.ContentLength)
	}
	got, err := ReadAll(resp)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadAll: err=%v, %d bytes, want %d", err, len(got), len(want))
	}
}

func TestReadAllTruncatedBody(t *testing.T) {
	resp := fetch(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "1000")
		w.Write(make([]byte, 400))
		// Returning short makes the server cut the connection.
	})
	if _, err := ReadAll(resp); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadAllDoesNotTrustHugeDeclaration(t *testing.T) {
	resp := &http.Response{
		ContentLength: MaxReserve + 1,
		Body:          io.NopCloser(bytes.NewReader([]byte("short"))),
	}
	got, err := ReadAll(resp)
	if err != nil || string(got) != "short" || cap(got) > 4096 {
		t.Fatalf("ReadAll = %q (cap %d), %v", got, cap(got), err)
	}
}

// FuzzReadAll: a body of declared length n reads as net/http's sized body
// does, io.LimitReader over the bytes sent. A declaration the body meets
// reads what io.ReadAll reads, one the body falls short of is
// io.ErrUnexpectedEOF, and no declaration (n < 0) or one past MaxReserve
// is io.ReadAll.
func FuzzReadAll(f *testing.F) {
	f.Add([]byte("<html>shell</html>"), int64(18))
	f.Add([]byte("<html>shell</html>"), int64(5))
	f.Add([]byte("<html>shell</html>"), int64(19))
	f.Add([]byte{}, int64(0))
	f.Add([]byte{}, int64(1))
	f.Add([]byte("chunked"), int64(-1))
	f.Add([]byte("short"), int64(MaxReserve+1))
	f.Fuzz(func(t *testing.T, body []byte, n int64) {
		// A declaration far past the body fails as one just past it does,
		// but would reserve up to MaxReserve bytes per execution.
		const slack = 1 << 10
		if n > int64(len(body))+slack && n <= MaxReserve {
			n = int64(len(body)) + n%slack
		}
		reader := func() io.Reader {
			if n < 0 {
				return bytes.NewReader(body)
			}
			return io.LimitReader(bytes.NewReader(body), n)
		}
		got, err := readBody(reader(), n)
		if n > int64(len(body)) && n <= MaxReserve {
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("readBody(%d bytes, n=%d) = %d bytes, %v; want io.ErrUnexpectedEOF", len(body), n, len(got), err)
			}
			return
		}
		want, wantErr := io.ReadAll(reader())
		if !bytes.Equal(got, want) || err != wantErr {
			t.Fatalf("readBody(%d bytes, n=%d) = %d bytes, %v; io.ReadAll reads %d bytes, %v", len(body), n, len(got), err, len(want), wantErr)
		}
	})
}

func TestParseMaxAge(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"public, max-age=60", time.Minute, true},
		{"max-age=0", 0, true},
		{"no-store", 0, false},
		{"max-age=abc", 0, false},
		{"max-age=-5", 0, false},
		{"", 0, false},
		// Past what a duration holds in nanoseconds: clamped, not wrapped
		// into a negative freshness.
		{"max-age=9223372036854775807", (1<<31 - 1) * time.Second, true},
		{"max-age=-9223372036854775808", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseMaxAge(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseMaxAge(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// FuzzParseMaxAge: an edge's freshness is the max-age the upstream states
// and nothing else, so the parser must hold on any Cache-Control value. It
// never panics; it reads every value as the strings.Split loop it replaced
// did (oldParseMaxAge); a value it accepts is a whole number of seconds
// from 0 to 2³¹−1; and "max-age=N" reads back as N seconds for every N it
// can state.
func FuzzParseMaxAge(f *testing.F) {
	for _, cc := range []string{
		"max-age=0",
		"public, max-age=30",
		"max-age=-1",
		"s-maxage=5, max-age=7",
		"max-age=12345678901234567890",
		"",
	} {
		f.Add(cc, uint32(30))
	}
	f.Add("max-age=1", uint32(1<<31-1))
	f.Add("max-age=2147483648", uint32(1<<31))
	f.Fuzz(func(t *testing.T, cc string, n uint32) {
		got, gotOK := ParseMaxAge(cc)
		if want, wantOK := oldParseMaxAge(cc); got != want || gotOK != wantOK {
			t.Fatalf("ParseMaxAge(%q) = %v,%v; the strings.Split loop reads %v,%v", cc, got, gotOK, want, wantOK)
		}
		if d, ok := ParseMaxAge(cc); ok {
			if d < 0 || d > (1<<31-1)*time.Second || d%time.Second != 0 {
				t.Fatalf("ParseMaxAge(%q) = %v", cc, d)
			}
		} else if d != 0 {
			t.Fatalf("ParseMaxAge(%q) refused with %v", cc, d)
		}
		secs := n % (1 << 31)
		want := time.Duration(secs) * time.Second
		if d, ok := ParseMaxAge("max-age=" + strconv.FormatUint(uint64(secs), 10)); !ok || d != want {
			t.Fatalf("max-age=%d reads as %v,%v", secs, d, ok)
		}
	})
}

// oldParseMaxAge is ParseMaxAge as it was written over strings.Split: the
// fuzz oracle for the strings.Cut loop that replaced it.
func oldParseMaxAge(cacheControl string) (time.Duration, bool) {
	for _, part := range strings.Split(cacheControl, ",") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(part), "max-age=")
		if !ok {
			continue
		}
		secs, err := strconv.ParseInt(rest, 10, 32)
		if (err != nil && !errors.Is(err, strconv.ErrRange)) || secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	return 0, false
}
