package httpbody

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestBlocksRequestRoundTrip(t *testing.T) {
	long := strings.Repeat("n", 300) // a two-byte length
	for _, c := range []struct {
		user  string
		names []string
	}{
		{"u000001", []string{"reco"}},
		{"", []string{"cart", "greeting"}},
		{"u", []string{"", long, "a,b&user=x"}},
	} {
		body := BlocksRequest(c.user, c.names)
		if cap(body) != len(body) {
			t.Errorf("%q: cap %d over len %d", c.names, cap(body), len(body))
		}
		user, names, err := parseBlocksRequest(string(body))
		if err != nil || user != c.user || strings.Join(names, "|") != strings.Join(c.names, "|") {
			t.Errorf("%q %q → %q %q, %v", c.user, c.names, user, names, err)
		}
	}
	if got := string(BlocksRequest("u000001", []string{"cart"})); got != "\x07u000001\x04cart" {
		t.Errorf("frame layout %q", got)
	}
}

func TestBlocksRequestRejects(t *testing.T) {
	tooMany := BlocksRequest("u", make([]string, MaxBlockNames+1))
	for _, body := range []string{
		"",               // no user frame
		"\x01u",          // no names
		"\x01u\x05cart",  // a name past the end
		"\x01u\x80",      // a length cut short
		"\x80\x00u\x01a", // a padded length
		string(tooMany),  // one name over the cap
		"\x01u\x01a\x01", // a trailing length with nothing after it
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", // past 64 bits
	} {
		if _, _, err := parseBlocksRequest(body); !errors.Is(err, ErrBlocksFrame) {
			t.Errorf("parseBlocksRequest(%q) = %v, want ErrBlocksFrame", body, err)
		}
	}
	if _, names, err := parseBlocksRequest(string(tooMany[:len(tooMany)-1])); err != nil || len(names) != MaxBlockNames {
		t.Errorf("%d names: %d parsed, %v", MaxBlockNames, len(names), err)
	}
}

func TestReadBlocksRequestCapsTheBody(t *testing.T) {
	ok := BlocksRequest("u1", []string{"cart"})
	over := BlocksRequest("u1", []string{strings.Repeat("x", MaxBlocksRequest)})
	for _, c := range []struct {
		name    string
		body    []byte
		chunked bool
		ok      bool
	}{
		{"sized", ok, false, true},
		{"chunked", ok, true, true},
		{"sized over the cap", over, false, false},
		{"chunked over the cap", over, true, false},
	} {
		r := httptest.NewRequest("POST", "/v1/blocks", bytes.NewReader(c.body))
		if c.chunked {
			r.ContentLength = -1
			r.Body = io.NopCloser(bytes.NewReader(c.body))
		}
		user, names, err := ReadBlocksRequest(r)
		if c.ok != (err == nil) || (c.ok && (user != "u1" || len(names) != 1 || names[0] != "cart")) {
			t.Errorf("%s: %q %q, %v", c.name, user, names, err)
		}
		if !c.ok && !errors.Is(err, ErrBlocksFrame) {
			t.Errorf("%s: %v, want ErrBlocksFrame", c.name, err)
		}
	}
}

func TestBlocksResponseRoundTrip(t *testing.T) {
	frs := [][]byte{[]byte("3 items"), nil, []byte(strings.Repeat("r", 200)), []byte("3 items")}
	body := BlocksResponse(frs)
	if cap(body) != len(body) {
		t.Fatalf("cap %d over len %d", cap(body), len(body))
	}
	got, err := ParseBlocksResponse(body, len(frs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frs) {
		t.Fatalf("decoded %d fragments, want %d", len(got), len(frs))
	}
	for i := range frs {
		if !bytes.Equal(got[i], frs[i]) {
			t.Fatalf("fragment %d decoded %q, want %q", i, got[i], frs[i])
		}
	}
	// Every fragment is a slice of the one body.
	if &got[2][0] != &body[len(body)-len("3 items")-1-len(frs[2])] {
		t.Fatal("fragment 2 is not a slice of the body")
	}
	// A caller appending to one fragment must not write over the next.
	if c := cap(got[0]); c != len("3 items") {
		t.Fatalf("fragment cap %d runs into the next frame", c)
	}
}

func TestParseBlocksResponseRejects(t *testing.T) {
	const two = 2
	for _, c := range []struct {
		body  string
		names int
	}{
		{"\x01A", two},           // one fragment for two names
		{"\x01A\x01B\x01C", two}, // three fragments for two names
		{"\x01A\x05B", two},      // a length past the end
		{"\x01A\x01B\x00", two},  // trailing bytes
		{"\x01A\x80", two},       // a length cut short
		{"\x01A\x81\x00B", two},  // a padded length
		// 2⁶⁴−1 bytes claimed
		{"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 1},
	} {
		frs, err := ParseBlocksResponse([]byte(c.body), c.names)
		if !errors.Is(err, ErrBlocksFrame) || frs != nil {
			t.Errorf("ParseBlocksResponse(%q, %d) = %q, %v; want ErrBlocksFrame", c.body, c.names, frs, err)
		}
	}
}

// FuzzBlocksFrame feeds both blocks decoders bytes a broken or hostile
// peer could send: the server's request parser, and the client's response
// parser with `names` block names asked for. Whatever arrives: no panic.
// What either accepts is canonical — encoding what it decoded gives back
// the same bytes — and the response parser accepts exactly one fragment
// per name.
//
// Seeds live in testdata/fuzz/FuzzBlocksFrame: a well-formed request, a
// truncated uvarint, a length past the end, trailing bytes, a fragment
// count that does not match the names, a zero-length fragment and the
// largest uvarint.
func FuzzBlocksFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, names uint8) {
		if user, got, err := parseBlocksRequest(string(body)); err == nil {
			if len(got) == 0 || len(got) > MaxBlockNames {
				t.Fatalf("accepted %d names", len(got))
			}
			if again := BlocksRequest(user, got); !bytes.Equal(again, body) {
				t.Fatalf("request %q re-encodes as %q", body, again)
			}
		}

		frs, err := ParseBlocksResponse(body, int(names))
		if err != nil {
			if !errors.Is(err, ErrBlocksFrame) {
				t.Fatalf("error %v does not wrap ErrBlocksFrame", err)
			}
			return
		}
		if len(frs) != int(names) {
			t.Fatalf("%d fragments for %d names", len(frs), names)
		}
		for i, fr := range frs {
			if cap(fr) != len(fr) {
				t.Fatalf("fragment %d: cap %d over len %d", i, cap(fr), len(fr))
			}
		}
		if again := BlocksResponse(frs); !bytes.Equal(again, body) {
			t.Fatalf("response %q re-encodes as %q", body, again)
		}
	})
}
