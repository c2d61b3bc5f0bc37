package cluster

import (
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
	"speedkit/internal/durable"
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
		nodes[i] = testNode(t, fmt.Sprintf("node-%d", i), clk, t.TempDir())
	}
	return nodes
}

// testNode builds one node of the test sizing, durable over dir unless it
// is empty.
func testNode(t *testing.T, name string, clk clock.Clock, dir string) *Node {
	t.Helper()
	cfg := NodeConfig{Member: name, Clock: clk, SketchCapacity: 512}
	if dir != "" {
		cfg.Durable = durable.New(durable.Config{Dir: dir, Clock: clk})
	}
	n := NewNode(cfg)
	if _, err := n.Recovery(); err != nil {
		t.Fatalf("node %s: %v", name, err)
	}
	return n
}

// testDelta is the Δ of the test clusters: a held frame ages out after
// Δ/12, one minute.
const testDelta = 12 * time.Minute

func testCluster(t *testing.T, clk clock.Clock, nodes []*Node) *Cluster {
	t.Helper()
	c, err := New(Config{Seed: 42, Delta: testDelta}, nodes)
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
	if err := c.ReportFill("product-1", clk.Now().Add(time.Hour)); err != nil {
		t.Fatalf("fill report: %v", err)
	}
	if held, err := c.ReportWrite("product-1"); err != nil || !held {
		t.Fatalf("write report: held %v, %v", held, err)
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
		if got := n.Contains("product-1"); got != (n.Name() == owner) {
			t.Errorf("%s tracks the write: %v; the owner is %s", n.Name(), got, owner)
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

	_ = c.ReportFill("key-a", clk.Now().Add(time.Hour))
	_, _ = c.ReportWrite("key-a")
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
	if held, err := c.ReportWrite("key-a"); !errors.Is(err, ErrNodeDown) || !held {
		t.Fatalf("write to dead shard: held %v, err = %v; want held and ErrNodeDown", held, err)
	}
	// The victim's frame ages out; the merge must degrade, never serve a
	// merge missing the dead shard.
	clk.Advance(2 * time.Minute)
	_ = c.SyncDeltas()
	if !c.Snapshot().MightBeStale("any-key-at-all") {
		t.Fatal("merge not saturated while a member is dead past MaxFrameAge")
	}

	if _, err := victim.Recover(); err != nil || victim.Down() {
		t.Fatalf("recover: %v, down %v", err, victim.Down())
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
	if _, err := c.ReportWrite("key-a"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestClusterWriteHeldUntilOwnerFolded: an owner that restarted since the
// merge last folded its frame cannot tell what the copies of the merged
// epoch were reported to it, so a write it takes counts as held — the
// server's CDN tier purges — until its new frame moves the merged epoch.
// Before the first exchange every write is held the same way.
func TestClusterWriteHeldUntilOwnerFolded(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := []*Node{testNode(t, "node-0", clk, ""), testNode(t, "node-1", clk, "")}
	c := testCluster(t, clk, nodes)
	defer c.Close()

	if held, err := c.ReportWrite("never-cached"); err != nil || !held {
		t.Fatalf("write before any exchange: held %v, %v; want held", held, err)
	}
	if err := c.SyncDeltas(); err != nil {
		t.Fatal(err)
	}
	if held, _ := c.ReportWrite("never-cached"); held {
		t.Fatal("a write no cache holds counts as held with every frame folded")
	}
	owner := c.Node(c.Ring().Owner("never-cached"))
	_ = owner.Kill()
	if _, err := owner.Recover(); err != nil {
		t.Fatal(err)
	}
	if held, err := c.ReportWrite("never-cached"); err != nil || !held {
		t.Fatalf("write to an owner restarted since the last fold: held %v, %v; want held", held, err)
	}
	if err := c.SyncDeltas(); err != nil {
		t.Fatal(err)
	}
	if held, _ := c.ReportWrite("never-cached"); held {
		t.Fatal("the owner's new frame is folded, and its write still counts as held")
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
		_ = c.ReportFill(key, clk.Now().Add(time.Hour))
		_, _ = c.ReportWrite(key)
		clk.Advance(time.Second)
		_ = c.SyncDeltas()
		step(fmt.Sprintf("write %d", i))
	}
	victim := c.Node("node-0")
	_ = victim.Kill()
	clk.Advance(2 * time.Minute)
	_ = c.SyncDeltas()
	step("dead member aged out")
	if _, err := victim.Recover(); err != nil {
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
		got, err := c.Process(ev)
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

// TestClusterDownShardIsConservative: a shard whose node is down answers
// every question the safe way. Its registrations count as matched by any
// event — a listing nobody could rule out is invalidated rather than left
// at a version no write moves — and its keys get TTL 0, so nothing keeps
// a copy the shard's sketch never learned of.
func TestClusterDownShardIsConservative(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 3)
	c := testCluster(t, clk, nodes)
	defer c.Close()

	var ids []string
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("/category/c%d", i)
		ids = append(ids, id)
		if err := c.Register(id, query.New("products", query.Eq("category", id))); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Node(c.Ring().Owner(ids[0]))
	var owned []string
	for _, id := range ids {
		if c.Ring().Owner(id) == victim.Name() {
			owned = append(owned, id)
		}
	}
	ev := storage.ChangeEvent{Collection: "products", ID: "p1", Kind: storage.ChangeUpdate,
		Before: query.NewDoc("p1", map[string]any{"category": "none"}),
		After:  query.NewDoc("p1", map[string]any{"category": "none"})}
	if got, err := c.Process(ev); err != nil || len(got) != 0 {
		t.Fatalf("an event no query matches: %d matches, %v", len(got), err)
	}
	if c.TTL("/product/p1") == 0 {
		t.Fatal("a live owner answers TTL 0")
	}

	_ = victim.Kill()
	got, err := c.Process(ev)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("process with a down matcher: %v, want ErrNodeDown", err)
	}
	var matched []string
	for _, inv := range got {
		matched = append(matched, inv.RegistrationID)
	}
	if !sort.StringsAreSorted(matched) || fmt.Sprint(matched) != fmt.Sprint(owned) {
		t.Fatalf("down matcher's registrations: matched %v, want %v sorted", matched, owned)
	}
	for _, n := range nodes {
		key := "/product/" + n.Name()
		for j := 0; c.Ring().Owner(key) != n.Name(); j++ {
			key = fmt.Sprintf("/product/%s-%d", n.Name(), j)
		}
		if ttl := c.TTL(key); (ttl == 0) != (n == victim) {
			t.Errorf("%s (down %v) answers TTL %v", n.Name(), n.Down(), ttl)
		}
	}
}

// TestNodeHTTPSurface drives a node's one endpoint with a Peer over real
// loopback HTTP: a report taken in process travels in the frame the peer
// reads back, and folds into the merged sketch.
func TestNodeHTTPSurface(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	node := testNode(t, "n0", clk, "")
	srv := httptest.NewServer(NodeHandler(node))
	defer srv.Close()

	if err := node.ReportFill("res-1", clk.Now().Add(time.Hour)); err != nil {
		t.Fatalf("fill report: %v", err)
	}
	if _, err := node.ReportWrite("res-1"); err != nil {
		t.Fatalf("write report: %v", err)
	}
	peer := NewPeer("n0", srv.URL, srv.Client())
	frame, err := peer.Delta()
	if err != nil {
		t.Fatalf("peer delta: %v", err)
	}
	if frame.Node != "n0" || frame.Epoch != node.Epoch() || frame.Generation != node.Generation() {
		t.Fatalf("frame from %q in epoch %x at generation %d, want n0's %x at %d",
			frame.Node, frame.Epoch, frame.Generation, node.Epoch(), node.Generation())
	}
	mg := NewMerger(MergerConfig{Members: []string{"n0"}, Capacity: 512, Clock: clk})
	if err := mg.Fold(frame); err != nil {
		t.Fatalf("fold: %v", err)
	}
	if !mg.Snapshot().MightBeStale("res-1") {
		t.Fatal("write read back over HTTP missing from merged sketch")
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
	node := testNode(t, "n0", clk, "")
	srv := httptest.NewServer(NodeHandler(node))
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
		srv := httptest.NewServer(NodeHandler(n))
		defer srv.Close()
		if err := c.UseDeltaSource(NewPeer(n.Name(), srv.URL, srv.Client())); err != nil {
			t.Fatalf("use source: %v", err)
		}
	}
	_ = c.ReportFill("k", clk.Now().Add(time.Hour))
	_, _ = c.ReportWrite("k")
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

// TestSyncDeltasOutlivesAHungPeer: a member whose node takes a pull and
// never answers fails that pull at its peer client's Timeout, as a down
// node, and the members after it in the round are still pulled and
// folded. A peer built with no client has the default Timeout.
func TestSyncDeltasOutlivesAHungPeer(t *testing.T) {
	if got := NewPeer("n0", "http://127.0.0.1:1", nil).send.Timeout(); got != httpbody.DefaultTimeout {
		t.Fatalf("a peer with no client pulls under a %v timeout, want %v", got, httpbody.DefaultTimeout)
	}
	clk := clock.NewSimulated(epoch)
	nodes := testNodes(t, clk, 3)
	c := testCluster(t, clk, nodes)
	defer c.Close()

	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release)
	hc := &http.Client{Timeout: 100 * time.Millisecond}
	for i, n := range nodes {
		target := hung.URL
		if i > 0 {
			srv := httptest.NewServer(NodeHandler(n))
			defer srv.Close()
			target = srv.URL
		}
		if err := c.UseDeltaSource(NewPeer(n.Name(), target, hc)); err != nil {
			t.Fatalf("use source: %v", err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- c.SyncDeltas() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNodeDown) || !strings.Contains(err.Error(), nodes[0].Name()) {
			t.Fatalf("SyncDeltas: %v, want %s down", err, nodes[0].Name())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SyncDeltas still waits on the hung member")
	}
	if st := c.merger.Stats(); st.Folds != 2 || st.Rejected != 0 {
		t.Fatalf("merger stats after the round: %+v, want the two answering members folded", st)
	}
}

// TestNodeDurableKillRecoversState: state journaled before a kill must
// survive into the recovered node, under a new epoch — the unclean log
// may have lost exposed generations.
func TestNodeDurableKillRecoversState(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	node := testNode(t, "n0", clk, t.TempDir())
	_ = node.ReportFill("res-1", clk.Now().Add(time.Hour))
	_, _ = node.ReportWrite("res-1")
	preGen := node.Generation()
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
	if _, err := node.Recover(); err != nil {
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
