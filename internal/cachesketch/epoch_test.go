package cachesketch

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/clock"
)

// TestServerEpochIsAnIncarnation: two servers started under one simulated
// clock draw different epochs, every snapshot carries its server's, Reset
// starts a new incarnation and SetEpoch continues an old one.
func TestServerEpochIsAnIncarnation(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	a, b := NewServer(ServerConfig{Clock: clk}), NewServer(ServerConfig{Clock: clk})
	if a.Epoch() == b.Epoch() {
		t.Fatalf("two starts under one clock share epoch %x", a.Epoch())
	}
	if sn := a.Snapshot(); sn.Epoch != a.Epoch() {
		t.Fatalf("snapshot epoch %x, server's %x", sn.Epoch, a.Epoch())
	}
	old := a.Epoch()
	a.Reset()
	if a.Epoch() == old {
		t.Fatal("Reset kept the dead incarnation's epoch")
	}
	a.SetEpoch(old)
	if a.Epoch() != old || a.Snapshot().Epoch != old {
		t.Fatalf("SetEpoch(%x) left the server at %x", old, a.Epoch())
	}
}

// TestSupersedes tables the install order: within an epoch by generation,
// then TakenAt; across epochs, always the newcomer — whatever the
// generations say.
func TestSupersedes(t *testing.T) {
	at := time.Unix(1000, 0)
	snap := func(epoch, gen uint64, taken time.Time) *Snapshot {
		return &Snapshot{Filter: bloom.NewFilter(64, 4), Epoch: epoch, Generation: gen, TakenAt: taken}
	}
	for _, row := range []struct {
		name    string
		sn, cur *Snapshot
		want    bool
	}{
		{"nothing held", snap(1, 0, at), nil, true},
		{"higher generation", snap(1, 5, at), snap(1, 4, at.Add(time.Hour)), true},
		{"lower generation", snap(1, 3, at.Add(time.Hour)), snap(1, 4, at), false},
		{"same generation, later", snap(1, 4, at.Add(time.Second)), snap(1, 4, at), true},
		{"same generation, same instant", snap(1, 4, at), snap(1, 4, at), false},
		{"other epoch, lower generation", snap(2, 0, at), snap(1, 1<<40, at), true},
		{"other epoch, older", snap(2, 9, at), snap(1, 9, at.Add(time.Hour)), true},
	} {
		if got := row.sn.Supersedes(row.cur); got != row.want {
			t.Errorf("%s: Supersedes = %v, want %v", row.name, got, row.want)
		}
	}
}

// TestClientEpochSince: the first epoch sets no mark, a snapshot of the
// held epoch none either; each change of epoch — a straggler from the dead
// incarnation included — moves the mark to the install. Install reports
// the first epoch and every move of the mark, and nothing else.
func TestClientEpochSince(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	c := NewClient(clk, time.Minute)
	snap := func(epoch, gen uint64) *Snapshot {
		return &Snapshot{Filter: bloom.NewFilter(64, 4), Epoch: epoch, Generation: gen, TakenAt: clk.Now()}
	}
	if !c.Install(snap(1, 7)) || !c.EpochSince().IsZero() {
		t.Fatalf("the first epoch went unreported or marked %v", c.EpochSince())
	}
	clk.Advance(time.Second)
	if c.Install(snap(1, 8)) || !c.EpochSince().IsZero() {
		t.Fatalf("a generation of the held epoch was reported or marked %v", c.EpochSince())
	}
	if c.Install(snap(1, 3)) {
		t.Fatal("a straggler of the held epoch, not installed, was reported")
	}
	clk.Advance(time.Second)
	restarted := clk.Now()
	if !c.Install(snap(2, 0)) || c.Generation() != 0 || !c.EpochSince().Equal(restarted) {
		t.Fatalf("after a restart: generation %d, mark %v; want 0 and %v, reported", c.Generation(), c.EpochSince(), restarted)
	}
	clk.Advance(time.Second)
	straggler := clk.Now()
	if !c.Install(snap(1, 9)) || c.Generation() != 9 || !c.EpochSince().Equal(straggler) {
		t.Fatalf("after a straggler: generation %d, mark %v; want 9 and %v", c.Generation(), c.EpochSince(), straggler)
	}
	if got := c.Stats().Refreshes; got != 4 {
		t.Fatalf("refreshes = %d, want 4", got)
	}
}

// TestClientResume: a client seeded with a journaled mark treats the
// recovered copies as stored in its epoch. A first install of that epoch
// keeps the recovered mark and reports nothing to journal; one of another
// epoch moves the mark to the install and reports it.
func TestClientResume(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	before := clk.Now()
	clk.Advance(time.Minute)
	snap := func(epoch uint64) *Snapshot {
		return &Snapshot{Filter: bloom.NewFilter(64, 4), Epoch: epoch, Generation: 1, TakenAt: clk.Now()}
	}
	for _, row := range []struct {
		name       string
		since      time.Time
		install    uint64
		report     bool
		wantMarked time.Time
	}{
		{"same epoch, never changed", time.Time{}, 1, false, time.Time{}},
		{"same epoch, changed before", before, 1, false, before},
		{"another epoch", before, 2, true, clk.Now()},
	} {
		c := NewClient(clk, time.Minute)
		c.Resume(1, row.since)
		if got := c.Install(snap(row.install)); got != row.report || !c.EpochSince().Equal(row.wantMarked) {
			t.Errorf("%s: reported %v, mark %v; want %v and %v", row.name, got, c.EpochSince(), row.report, row.wantMarked)
		}
	}
}

// TestSketchHTTPCarriesTheEpoch: the epoch crosses the wire, and the value
// a holder received is the value it hands on.
func TestSketchHTTPCarriesTheEpoch(t *testing.T) {
	srv := NewServer(ServerConfig{})
	w := newDiscardWriter()
	resp := w.roundTrip(t, srv.Snapshot())
	if got, want := resp.Header.Get(EpochHeader), fmt.Sprintf("%016x", srv.Epoch()); got != want {
		t.Fatalf("%s: %q, want %q", EpochHeader, got, want)
	}
	// A holder keeps what it got, even spelled otherwise than the server
	// spells it, and hands that on.
	resp.Header.Set(EpochHeader, "00ABCDEF")
	sn, err := ReadHTTP(resp, time.Unix(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Epoch != 0xabcdef {
		t.Fatalf("read epoch %x, want abcdef", sn.Epoch)
	}
	if got := w.roundTrip(t, sn).Header.Get(EpochHeader); got != "00ABCDEF" {
		t.Fatalf("handed on %q, want the value received", got)
	}
}

// TestWriteHTTPAllocations pins what answering a sketch request costs: the
// epoch header is formatted once per epoch by the server and kept as
// received by a holder, so it adds nothing to the seven the response cost
// before there was an epoch: the five header values Set makes, and the
// generation and Content-Length strings.
func TestWriteHTTPAllocations(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	srv := NewServer(ServerConfig{Clock: clk})
	for i := 0; i < 200; i++ {
		key := "/p/" + strconv.Itoa(i)
		srv.ReportCachedRead(key, clk.Now().Add(time.Hour))
		srv.ReportWrite(key)
	}
	sn := srv.Snapshot()
	w := newDiscardWriter()
	held, err := ReadHTTP(w.roundTrip(t, sn), clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Snapshot{"server's": sn, "held": held} {
		if n := testing.AllocsPerRun(200, func() {
			clear(w.h)
			if err := s.WriteHTTP(w, "public, max-age=30", 3*time.Second); err != nil {
				t.Fatal(err)
			}
		}); n > 7 {
			t.Errorf("WriteHTTP of the %s snapshot allocates %.0f per call, want at most 7", name, n)
		}
	}
}

// discardWriter is a ResponseWriter that keeps the body it was given, so
// what WriteHTTP allocates is WriteHTTP's own.
type discardWriter struct {
	h    http.Header
	body []byte
}

func newDiscardWriter() *discardWriter { return &discardWriter{h: http.Header{}} }

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.body = p
	return len(p), nil
}
func (d *discardWriter) WriteHeader(int) {}

// roundTrip writes sn and returns it as the response a reader gets.
func (d *discardWriter) roundTrip(t *testing.T, sn *Snapshot) *http.Response {
	t.Helper()
	clear(d.h)
	if err := sn.WriteHTTP(d, "public, max-age=30", 0); err != nil {
		t.Fatal(err)
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        d.h.Clone(),
		Body:          io.NopCloser(bytes.NewReader(d.body)),
		ContentLength: int64(len(d.body)),
	}
}

// TestClientInstallAcrossEpochsConcurrent: installs from two incarnations
// racing each other and the read path. Run under -race.
func TestClientInstallAcrossEpochsConcurrent(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	c := NewClient(clk, time.Minute)
	f := bloom.NewFilter(64, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(epoch uint64) {
			defer wg.Done()
			for i := uint64(0); i < 200; i++ {
				c.Install(&Snapshot{Filter: f, Epoch: epoch, Generation: i, TakenAt: clk.Now()})
				c.Check("/k")
				_ = c.EpochSince()
			}
		}(uint64(g%2 + 1))
	}
	wg.Wait()
	if c.EpochSince().IsZero() {
		t.Fatal("two epochs were installed and nothing was marked")
	}
}

// TestClientNotedEpochs tables the install rule for copies stored before
// the install: it keeps the mark where it is only if every noted epoch is
// the installed one. An install consumes the notes before it.
func TestClientNotedEpochs(t *testing.T) {
	const installed, other = 7, 8
	for _, row := range []struct {
		name  string
		notes []uint64
		mark  bool
	}{
		{"nothing noted", nil, false},
		{"same epoch", []uint64{installed, installed}, false},
		{"another epoch", []uint64{other}, true},
		{"two epochs", []uint64{installed, other}, true},
		{"no epoch stated", []uint64{0}, true},
	} {
		clk := clock.NewSimulated(time.Unix(1000, 0))
		c := NewClient(clk, time.Minute)
		for _, e := range row.notes {
			c.Note(e)
		}
		clk.Advance(time.Second)
		c.Install(&Snapshot{Filter: bloom.NewFilter(64, 4), Epoch: installed, Generation: 1, TakenAt: clk.Now()})
		if marked := !c.EpochSince().IsZero(); marked != row.mark {
			t.Errorf("%s: marked %v, want %v", row.name, marked, row.mark)
		}
		mark := c.EpochSince()
		clk.Advance(time.Second)
		c.Install(&Snapshot{Filter: bloom.NewFilter(64, 4), Epoch: installed, Generation: 2, TakenAt: clk.Now()})
		if !c.EpochSince().Equal(mark) {
			t.Errorf("%s: the next install of the epoch moved the mark to %v: the notes were not consumed", row.name, c.EpochSince())
		}
	}
}

// TestClientNoteInstallConcurrent: notes and installs racing each other and
// the read path. Every note names the one epoch installed, so no install
// may mark. Run under -race.
func TestClientNoteInstallConcurrent(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	c := NewClient(clk, time.Minute)
	f := bloom.NewFilter(64, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(installs bool) {
			defer wg.Done()
			for i := uint64(0); i < 200; i++ {
				if installs {
					c.Install(&Snapshot{Filter: f, Epoch: 3, Generation: i, TakenAt: clk.Now()})
				} else {
					c.Note(3)
				}
				c.Check("/k")
				_ = c.EpochSince()
			}
		}(g%2 == 0)
	}
	wg.Wait()
	if !c.EpochSince().IsZero() {
		t.Fatalf("notes of the installed epoch marked %v", c.EpochSince())
	}
}

// TestPageEpoch: the epoch a page answer states, 0 for none or for one
// that does not parse; and the server's header value is read without a
// lock or an allocation.
func TestPageEpoch(t *testing.T) {
	for v, want := range map[string]uint64{"00000000000abcde": 0xabcde, "": 0, "nope": 0, "1ffffffffffffffff": 0} {
		h := http.Header{}
		if v != "" {
			h.Set(EpochHeader, v)
		}
		if got := PageEpoch(h); got != want {
			t.Errorf("PageEpoch(%q) = %x, want %x", v, got, want)
		}
	}
	srv := NewServer(ServerConfig{})
	h := http.Header{}
	h[EpochHeader] = srv.EpochValue()
	if PageEpoch(h) != srv.Epoch() {
		t.Fatalf("the server states %v, its epoch is %x", h[EpochHeader], srv.Epoch())
	}
	if n := testing.AllocsPerRun(100, func() { _ = srv.EpochValue() }); n != 0 {
		t.Fatalf("EpochValue allocates %.0f", n)
	}
}
