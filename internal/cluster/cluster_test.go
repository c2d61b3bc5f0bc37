package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/httpbody"
	"speedkit/internal/invalidb"
	"speedkit/internal/query"
	"speedkit/internal/storage"
)

// testNodes builds n durable nodes over per-node temp dirs sharing clk.
func testNodes(t *testing.T, clk clock.Clock, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(NodeConfig{
			Member:         fmt.Sprintf("node-%d", i),
			Clock:          clk,
			SketchCapacity: 512,
			DurableDir:     t.TempDir(),
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = node
	}
	return nodes
}

func testCluster(t *testing.T, clk clock.Clock, nodes []*Node) *Cluster {
	t.Helper()
	c, err := New(Config{
		Seed:        42,
		Clock:       clk,
		Capacity:    512,
		MaxFrameAge: time.Minute,
	}, nodes)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return c
}

// TestClusterRoutedWriteReachesMergedSketch: a write routed to its shard
// owner must appear in the merged client sketch after one exchange round.
func TestClusterRoutedWriteReachesMergedSketch(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 3)
	c := testCluster(t, clk, nodes)
	defer c.Close()

	// A write only enters the sketch while a cached copy may be live.
	if err := c.ReportCachedRead("product-1", clk.Now().Add(time.Hour)); err != nil {
		t.Fatalf("read report: %v", err)
	}
	if err := c.ReportWrite("product-1"); err != nil {
		t.Fatalf("write report: %v", err)
	}
	if err := c.SyncDeltas(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	snap := c.Snapshot()
	if !snap.MightBeStale("product-1") {
		t.Fatal("routed write missing from merged sketch")
	}
	if snap.MightBeStale("product-unrelated-7") && c.Stats().Merger.SaturatedServes > 0 &&
		c.Stats().Merger.MergedServes == 0 {
		t.Fatal("merge still saturated after a full exchange round")
	}
	// Verify the write landed on exactly the ring owner.
	owner := c.Ring().Owner("product-1")
	for _, n := range nodes {
		st := n.Stats()
		if n.Name() == owner && st.Writes != 1 {
			t.Errorf("owner %s recorded %d writes, want 1", n.Name(), st.Writes)
		}
		if n.Name() != owner && st.Writes != 0 {
			t.Errorf("non-owner %s recorded %d writes", n.Name(), st.Writes)
		}
	}
}

// TestClusterKillDegradesAndRecoveryRestores drives the full node-kill
// cycle: kill → routed ops to the dead shard fail and the merge degrades
// to saturated; recover → the node comes back under a new epoch with what
// its log held, and the merge completes again under a new merged epoch,
// which every holder installs and revalidates its older copies from.
func TestClusterKillDegradesAndRecoveryRestores(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 3)
	c := testCluster(t, clk, nodes)
	defer c.Close()

	_ = c.ReportCachedRead("key-a", clk.Now().Add(time.Hour))
	_ = c.ReportWrite("key-a")
	if err := c.SyncDeltas(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	pre := c.Snapshot()
	if pre.MightBeStale("fresh-unwritten") {
		t.Fatal("healthy cluster serving saturated sketch")
	}

	victimName := c.Ring().Owner("key-a")
	victim := c.Node(victimName)
	if err := victim.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := c.ReportWrite("key-a"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("write to dead shard: err = %v, want ErrNodeDown", err)
	}
	// The victim's frame ages out; the merge must degrade, never serve a
	// merge missing the dead shard.
	clk.Advance(2 * time.Minute)
	_ = c.SyncDeltas()
	if !c.Snapshot().MightBeStale("any-key-at-all") {
		t.Fatal("merge not saturated while a member is dead past MaxFrameAge")
	}

	if err := victim.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	st := victim.Stats()
	if st.Recoveries != 1 || st.Down {
		t.Fatalf("recovery stats: %+v", st)
	}
	if err := c.SyncDeltas(); err != nil {
		t.Fatalf("post-recovery sync: %v", err)
	}
	// Complete again, under a new merged epoch, and the write the log
	// held is still flagged.
	post := c.Snapshot()
	if post.MightBeStale("fresh-unwritten-2") {
		t.Fatal("merge still saturated after every member's frame is folded")
	}
	if post.Epoch == pre.Epoch {
		t.Fatal("the recovered shard's new epoch left the merged epoch as it was")
	}
	if !post.MightBeStale("key-a") {
		t.Fatal("the recovered shard lost the write its log held")
	}
	if err := c.ReportWrite("key-a"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestClusterGenerationNeverRegressesAcrossKill pins the watermark rule
// under the crash matrix: a kill + recovery must never hand clients a
// merged snapshot they would refuse — a lower generation of the epoch
// they hold. The killed node recovers from an unclean log under a new
// epoch, so the merged sketch moves to a new epoch of its own.
func TestClusterGenerationNeverRegressesAcrossKill(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 2)
	c := testCluster(t, clk, nodes)
	defer c.Close()

	client := cachesketch.NewClient(clk, time.Hour)
	last := c.Snapshot()
	step := func(stage string) {
		t.Helper()
		sn := c.Snapshot()
		if sn.Epoch == last.Epoch && sn.Generation < last.Generation {
			t.Fatalf("%s: merged generation regressed %d -> %d", stage, last.Generation, sn.Generation)
		}
		client.Install(sn)
		if client.Generation() != sn.Generation {
			t.Fatalf("%s: a client refused the merged generation %d", stage, sn.Generation)
		}
		last = sn
	}
	first := last.Epoch
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		_ = c.ReportCachedRead(key, clk.Now().Add(time.Hour))
		_ = c.ReportWrite(key)
		clk.Advance(time.Second)
		_ = c.SyncDeltas()
		step(fmt.Sprintf("write %d", i))
	}
	victim := c.Node("node-0")
	_ = victim.Kill()
	clk.Advance(2 * time.Minute)
	_ = c.SyncDeltas()
	step("dead member aged out")
	if err := victim.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	_ = c.SyncDeltas()
	step("recovered")
	clk.Advance(2 * time.Minute)
	_ = c.SyncDeltas()
	step("two minutes on")
	if last.Epoch == first {
		t.Fatal("an unclean recovery left the merged sketch in its epoch")
	}
}

// TestClusterEventBroadcastMatchesOracle: the cluster's two-dimensional
// partitioning (registrations by ID, events broadcast) must produce
// exactly the matches of one unsharded engine over the same
// registrations.
func TestClusterEventBroadcastMatchesOracle(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 4)
	c := testCluster(t, clk, nodes)
	defer c.Close()

	oracle := invalidb.New(invalidb.Config{Clock: clk})
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("q:products?cat=%d", i%8)
		q := query.New("products", query.Eq("category", fmt.Sprintf("cat-%d", i%8)))
		if err := c.Register(id, q); err != nil {
			t.Fatalf("register: %v", err)
		}
		oracle.Register(id, q)
	}
	// Registrations must actually be spread across members.
	owners := map[string]bool{}
	for i := 0; i < 40; i++ {
		owners[c.Ring().Owner(fmt.Sprintf("q:products?cat=%d", i%8))] = true
	}
	if len(owners) < 2 {
		t.Fatalf("all registrations landed on %d member(s)", len(owners))
	}

	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("p-%d", i)
		ev := storage.ChangeEvent{
			Collection: "products",
			ID:         id,
			Kind:       storage.ChangeUpdate,
			Before:     query.NewDoc(id, map[string]any{"category": fmt.Sprintf("cat-%d", i%8)}),
			After:      query.NewDoc(id, map[string]any{"category": fmt.Sprintf("cat-%d", (i+1)%8)}),
			Time:       clk.Now(),
		}
		got, err := c.ProcessEvent(ev)
		if err != nil {
			t.Fatalf("process: %v", err)
		}
		want := oracle.Process(ev)
		gotIDs := make([]string, len(got))
		for j, inv := range got {
			gotIDs[j] = inv.RegistrationID + "/" + inv.Kind.String()
		}
		wantIDs := make([]string, len(want))
		for j, inv := range want {
			wantIDs[j] = inv.RegistrationID + "/" + inv.Kind.String()
		}
		sort.Strings(gotIDs)
		sort.Strings(wantIDs)
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			t.Fatalf("event %d: cluster matched %v, oracle %v", i, gotIDs, wantIDs)
		}
	}
}

// TestNodeHTTPSurface drives a node through its /v1/cluster endpoints
// with a Peer over real loopback HTTP: report → delta → fold must carry a
// key into the merged sketch, and the ring endpoint must describe the
// deployment.
func TestNodeHTTPSurface(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	node, err := NewNode(NodeConfig{Member: "n0", Clock: clk, SketchCapacity: 512})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	ring := NewRing(1, 0, []string{"n0"})
	srv := httptest.NewServer(NodeHandler(node, ring))
	defer srv.Close()

	peer := NewPeer("n0", srv.URL, srv.Client())
	if err := peer.ReportCachedRead("res-1", clk.Now().Add(time.Hour)); err != nil {
		t.Fatalf("peer read report: %v", err)
	}
	if err := peer.ReportWrites([]string{"res-1"}); err != nil {
		t.Fatalf("peer write report: %v", err)
	}
	frame, err := peer.Delta()
	if err != nil {
		t.Fatalf("peer delta: %v", err)
	}
	if sk, _, _, _, _ := node.parts(); frame.Node != "n0" || frame.Epoch != sk.Epoch() {
		t.Fatalf("frame from %q in epoch %x, want n0's %x", frame.Node, frame.Epoch, sk.Epoch())
	}
	mg := NewMerger(MergerConfig{Members: []string{"n0"}, Capacity: 512, Clock: clk})
	if err := mg.Fold(frame); err != nil {
		t.Fatalf("fold: %v", err)
	}
	if !mg.Snapshot().MightBeStale("res-1") {
		t.Fatal("write reported over HTTP missing from merged sketch")
	}

	info, err := peer.Ring()
	if err != nil {
		t.Fatalf("peer ring: %v", err)
	}
	if info.Seed != 1 || len(info.Members) != 1 || info.Members[0] != "n0" {
		t.Fatalf("ring info = %+v", info)
	}
}

// expectEnvelope sends one request and checks the status and the code in
// the JSON error envelope that answers it.
func expectEnvelope(t *testing.T, srv *httptest.Server, method, path, body string, wantStatus int, wantCode string) {
	t.Helper()
	req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var eb httpbody.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("%s %s: status %d, no envelope: %v", method, path, resp.StatusCode, err)
	}
	if resp.StatusCode != wantStatus || eb.Error.Code != wantCode || eb.Error.Message == "" {
		t.Fatalf("%s %s: %d %+v, want %d %s and a message", method, path, resp.StatusCode, eb.Error, wantStatus, wantCode)
	}
}

// TestNodeHandlerErrors: every failure of a node's endpoints travels in
// the envelope, and the peer maps a down node's 503 back onto ErrNodeDown.
func TestNodeHandlerErrors(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	node, err := NewNode(NodeConfig{Member: "n0", Clock: clk})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	srv := httptest.NewServer(NodeHandler(node, NewRing(1, 0, []string{"n0"})))
	defer srv.Close()

	expectEnvelope(t, srv, http.MethodGet, "/v1/cluster/nope", "", http.StatusNotFound, httpbody.CodeNotFound)
	expectEnvelope(t, srv, http.MethodPost, "/v1/cluster/delta", "", http.StatusMethodNotAllowed, httpbody.CodeBadRequest)

	_ = node.Kill()
	expectEnvelope(t, srv, http.MethodGet, "/v1/cluster/delta", "", http.StatusServiceUnavailable, httpbody.CodeUnavailable)
	peer := NewPeer("n0", srv.URL, srv.Client())
	if _, err := peer.Delta(); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("peer against killed node: err = %v, want ErrNodeDown", err)
	}
}

// TestFrontHandler drives the front's routes: a report is routed to its
// shard owner and shows in the merged sketch, which is served the way
// speedkit-server serves its own — a device's or an edge's reader takes
// it unchanged, declared length included; failures travel in the envelope.
func TestFrontHandler(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 2)
	c := testCluster(t, clk, nodes)
	defer c.Close()
	srv := httptest.NewServer(FrontHandler(c, 30*time.Second))
	defer srv.Close()

	// The fill first: a write enters the sketch only while a copy may be
	// cached, and one request's writes are applied before its reads.
	for _, report := range []reportRequest{
		{Reads: []readReport{{Key: "k", ExpiresAt: clk.Now().Add(time.Hour)}}},
		{Writes: []string{"k"}},
	} {
		body, _ := json.Marshal(report)
		resp, err := srv.Client().Post(srv.URL+"/v1/cluster/report", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusNoContent {
			t.Fatalf("report %+v: %v, %v", report, resp, err)
		}
		resp.Body.Close()
	}
	if err := c.SyncDeltas(); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/sketch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// One tracked key: the merged filter goes out compacted to 64 bits,
	// not at the size the shards exchange it in.
	if resp.ContentLength != 21 || resp.Header.Get("Cache-Control") != "public, max-age=30" || resp.Header.Get("Age") != "" {
		t.Fatalf("sketch: Content-Length %d, Cache-Control %q, Age %q", resp.ContentLength, resp.Header.Get("Cache-Control"), resp.Header.Get("Age"))
	}
	sn, err := cachesketch.ReadHTTP(resp, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sn.Generation != c.Snapshot().Generation || !sn.MightBeStale("k") || sn.MightBeStale("unwritten") {
		t.Fatalf("sketch over HTTP: generation %d (merged %d), flags k: %v", sn.Generation, c.Snapshot().Generation, sn.MightBeStale("k"))
	}

	info, err := NewPeer("front", srv.URL, srv.Client()).Ring()
	if err != nil || len(info.Members) != 2 {
		t.Fatalf("ring: %+v, %v", info, err)
	}
	var health struct {
		Status  string
		Members []string
		Stats   ClusterStats
	}
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || health.Status != "ok" || len(health.Members) != 2 || health.Stats.RoutedWrites != 1 {
		t.Fatalf("healthz: %+v, %v", health, err)
	}

	expectEnvelope(t, srv, http.MethodGet, "/page", "", http.StatusNotFound, httpbody.CodeNotFound)
	expectEnvelope(t, srv, http.MethodGet, "/v1/cluster/report", "", http.StatusMethodNotAllowed, httpbody.CodeBadRequest)
	expectEnvelope(t, srv, http.MethodPost, "/v1/sketch", "", http.StatusMethodNotAllowed, httpbody.CodeBadRequest)
	expectEnvelope(t, srv, http.MethodPost, "/v1/cluster/report", "{not json", http.StatusBadRequest, httpbody.CodeBadRequest)
	expectEnvelope(t, srv, http.MethodPost, "/v1/cluster/report", `{"reads":[{"expires_at":"2030-01-01T00:00:00Z"}]}`, http.StatusBadRequest, httpbody.CodeBadRequest)
	// A report for a shard whose owner is down is retryable, not lost
	// silently.
	_ = c.Node(c.Ring().Owner("k")).Kill()
	expectEnvelope(t, srv, http.MethodPost, "/v1/cluster/report", `{"writes":["k"]}`, http.StatusServiceUnavailable, httpbody.CodeUnavailable)
}

// TestNodeDeltaShipsTheFullFilter: devices get the sketch compacted to
// what it tracks; the merger gets every shard's filter at the cluster's
// (m, k), because it unions them. A node that shipped the device encoding
// would have every frame refused and the front serving saturated forever.
func TestNodeDeltaShipsTheFullFilter(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 2)
	c := testCluster(t, clk, nodes)
	defer c.Close()
	wantM, wantK := c.merger.Params()
	for _, n := range nodes {
		frame, err := n.Delta()
		if err != nil {
			t.Fatal(err)
		}
		var f bloom.Filter
		if err := f.UnmarshalBinary(frame.Sketch); err != nil {
			t.Fatal(err)
		}
		if f.Bits() != wantM || f.Hashes() != wantK || f.FillRatio() != 0 {
			t.Fatalf("%s ships m=%d k=%d fill %.2f; the merger unions at m=%d k=%d", frame.Node, f.Bits(), f.Hashes(), f.FillRatio(), wantM, wantK)
		}
	}
	if err := c.SyncDeltas(); err != nil {
		t.Fatal(err)
	}
	if st := c.merger.Stats(); st.Rejected != 0 || st.Folds != 2 {
		t.Fatalf("merger stats after one exchange: %+v", st)
	}
	if c.Snapshot().MightBeStale("unwritten") {
		t.Fatal("a complete merge of two idle shards flags an unwritten key")
	}
}

// TestClusterDeltaOverHTTPSources swaps every in-process delta source for
// a Peer and checks a full exchange round over real loopback HTTP.
func TestClusterDeltaOverHTTPSources(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 2)
	c := testCluster(t, clk, nodes)
	defer c.Close()

	for _, n := range nodes {
		srv := httptest.NewServer(NodeHandler(n, c.Ring()))
		defer srv.Close()
		if err := c.UseDeltaSource(NewPeer(n.Name(), srv.URL, srv.Client())); err != nil {
			t.Fatalf("use source: %v", err)
		}
	}
	_ = c.ReportCachedRead("k", clk.Now().Add(time.Hour))
	_ = c.ReportWrite("k")
	if err := c.SyncDeltas(); err != nil {
		t.Fatalf("sync over HTTP: %v", err)
	}
	if !c.Snapshot().MightBeStale("k") {
		t.Fatal("write missing from merge after HTTP exchange")
	}
	if c.Snapshot().MightBeStale("unwritten") {
		t.Fatal("merge saturated after complete HTTP exchange")
	}
}

// TestNodeDurableKillRecoversState: state journaled before a kill must
// survive into the recovered node, under a new epoch — the unclean log
// may have lost exposed generations.
func TestNodeDurableKillRecoversState(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	dir := t.TempDir()
	node, err := NewNode(NodeConfig{
		Member:         "n0",
		Clock:          clk,
		SketchCapacity: 512,
		DurableDir:     dir,
	})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	_ = node.ReportCachedRead("res-1", clk.Now().Add(time.Hour))
	_ = node.ReportWrites([]string{"res-1"})
	preGen, err := node.Generation()
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	// Publish a frame so the generation is journaled before the kill.
	pre, err := node.Delta()
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if err := node.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if _, err := node.Delta(); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("delta on dead node: %v", err)
	}
	if err := node.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	frame, err := node.Delta()
	if err != nil {
		t.Fatalf("post-recovery delta: %v", err)
	}
	var f bloom.Filter
	if err := f.UnmarshalBinary(frame.Sketch); err != nil {
		t.Fatal(err)
	}
	if !f.Contains("res-1") {
		t.Fatal("the journaled write is missing from the recovered sketch")
	}
	if frame.Generation < preGen {
		t.Fatalf("recovered generation %d below pre-kill %d: journaled writes lost", frame.Generation, preGen)
	}
	if frame.Epoch == pre.Epoch {
		t.Fatalf("unclean recovery kept epoch %x", pre.Epoch)
	}
}
