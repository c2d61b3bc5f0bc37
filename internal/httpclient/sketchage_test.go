package httpclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/netsim"
)

// TestFetchSketchStampsTheSend: a sketch that took five seconds to arrive
// was taken up to five seconds ago. A device holding it must ask for the
// next one no later than Δ after it sent the request — stamping the
// arrival would let it trust the snapshot for Δ plus the transfer.
func TestFetchSketchStampsTheSend(t *testing.T) {
	const delta = 30 * time.Second
	const transfer = 5 * time.Second
	sent := time.Unix(1000, 0)
	clk := clock.NewSimulated(sent)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		clk.Advance(transfer)
		data, _ := bloom.NewFilterForCapacity(64, 0.01).MarshalBinary()
		w.Header().Set("X-Sketch-Generation", "3")
		w.Write(data)
	}))
	defer srv.Close()
	tr := New(srv.URL, srv.Client())
	tr.clk = clk

	sn, lat, err := tr.FetchSketch(context.Background(), netsim.EU)
	if err != nil {
		t.Fatal(err)
	}
	if !sn.TakenAt.Equal(sent) || lat != transfer {
		t.Fatalf("TakenAt = %v, latency = %v; want the send %v and %v", sn.TakenAt, lat, sent, transfer)
	}

	device := cachesketch.NewClient(clk, delta)
	device.Install(sn)
	clk.Set(sent.Add(delta - time.Second))
	if device.NeedsRefresh() {
		t.Fatal("sketch stale before Δ had passed since the send")
	}
	clk.Set(sent.Add(delta))
	if !device.NeedsRefresh() {
		t.Fatalf("Δ after the send the device still trusts its sketch (age %v)", device.Age())
	}
}
