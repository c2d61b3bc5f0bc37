package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Deployment constants shared by every workload.
const (
	// delta is the staleness bound Δ handed to devices and the server.
	delta = 4 * time.Second
	// sketchPoll is the edge's sketch refresh interval.
	sketchPoll = time.Second
	// slowOp is the ceiling above which an op counts as failed.
	slowOp = time.Second
	// probeInputs is how many of the run's inputs the probe pass replays.
	probeInputs = 2000
	// traceSampleLoads is how many loads' spans trace.json keeps.
	traceSampleLoads = 2000
	// workDir holds everything the benchmark writes: durable-store
	// scratch directories and trace.json. It sits under the driver's
	// build directory, which .gitignore names.
	workDir = ".bench_build/speedkit-load"
)

// mix is one workload: a traffic mix and the deployment it runs against.
type mix struct {
	Name string
	Why  string

	products int
	// zipf selects Zipf(1.07) product popularity; false is uniform.
	zipf bool
	// session is the page views a device serves before the visitor
	// switches to a fresh one.
	session int
	// writeShare is the share of ops that are POST /v1/write.
	writeShare float64
	// facets is the number of /facet/<category>/band-<i> listing pages
	// registered; readers view them in place of category pages.
	facets int
	// durable puts a durable.Store (WAL + snapshots) under the server.
	durable bool
	// edge puts an edge.Proxy between devices and the server.
	edge bool
	// originBlocks makes devices fetch the reco block over /v1/blocks.
	originBlocks bool
	// warmOps is the fixed warm-up op count per visitor.
	warmOps int
	// opsPerSec sizes the pre-generated op list: seconds × opsPerSec ops
	// in total. A visitor that runs out wraps around.
	opsPerSec int
}

// workloads are fixed by name; later issues cite them.
var workloads = []mix{
	{
		Name: "browse_hot",
		Why:  "1000 products, Zipf 1.07, sessions of 8 views: working set fits the edge, so the median load is an edge hit over HTTP",

		products: 1000, zipf: true, session: 8, edge: true,
		warmOps: 6000, opsPerSec: 50000,
	},
	{
		Name: "catalog_cold",
		Why:  "50000 products, uniform, every load from a fresh device: working set far exceeds the edge, so the miss path down to origin render dominates",

		products: 50000, session: 1, edge: true,
		warmOps: 2500, opsPerSec: 8000,
	},
	{
		Name: "write_storm",
		Why:  "browse_hot reads with 20% POST /v1/write, 2048 facet queries, durable store: the write pipeline runs beside reads and purges reach the edge",

		products: 1000, zipf: true, session: 8, edge: true,
		writeShare: 0.2, facets: 2048, durable: true,
		warmOps: 2500, opsPerSec: 12000,
	},
	{
		Name: "direct_personalized",
		Why:  "browse_hot reads, logged-in users, reco block from /v1/blocks, no edge: the first-party path, and the control on which an edge change reads no change",

		products: 1000, zipf: true, session: 8, originBlocks: true,
		warmOps: 4000, opsPerSec: 25000,
	},
}

func workloadByName(name string) *mix {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec describes one reported metric. A per-layer metric's name
// starts with its layer. Moves is the benchmark's own note, written
// down before measuring and printed beside the value (BENCHMARK.json
// has no field for it): which end-to-end metric, on which workload, a
// change to this one should move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the worsening, as a share of the earlier median, beyond
	// which -compare counts a regression: the defining issue's number.
	Bound float64
	// Gate is the "bound" of BENCHMARK.json: the worsening at which the
	// driver rejects a change outright, and the widest spread it accepts
	// between ten runs of one commit. It is three times the spread seen,
	// or the contract's ceiling of 0.25.
	Gate  float64
	Moves string
}

// endToEnd are the metrics a visitor or operator sees, printed with
// --trace 0. Every one is non-zero on every workload. The timed ones are
// taken from the quiet slices of the measured phase (see quiet in
// run.go), because over the whole phase they follow the host: ten runs
// of one commit then spread by 15-25 %, over the quiet slices by 2-8 %.
// The driver's gate on them stays the widest the contract allows, three
// times that; -compare holds medians of repeated runs to Bound and calls
// a difference unresolved when the runs spread wider than that. The
// counted ones repeat to a fraction of a percent. See README.md.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "loads_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Gate: 0.25},
	{Name: "load_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "load_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Gate: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02, Gate: 0.03},
	{Name: "alloc_bytes_per_op", Unit: "bytes", Better: "lower", Bound: 0.05, Gate: 0.05},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, Gate: 0.10},
}

// writeLatency are the end-to-end metrics only a workload that writes
// has: request → ack of POST /v1/write. Every such run prints them and
// -compare holds them to these bounds. BENCHMARK.json cannot list them,
// so they have no gate: its end-to-end metrics are reported, non-zero,
// by every workload.
var writeLatency = [2]metricSpec{
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.15},
}

// unpersonalizedRise is by how much of the ops attempted the share of
// unpersonalized loads may rise between two runs before -compare flags
// it. Behind an edge the share follows how many ops a run got through,
// so two runs of one commit differ by a little.
const unpersonalizedRise = 0.01

// staleShare is the share of a run's loads that may be stale reads
// before each of them is a failed op, and by how much of the ops
// attempted their share may rise between two runs before -compare flags
// it. The render/write race of the seed commit (README.md) leaves up to
// ten stale reads, under 0.02 % of the loads, in one run of write_storm
// in ten and none in the others; a purge or a sketch that stopped working
// leaves them by the thousand.
const staleShare = 0.001

// Shorthand for the Moves column.
const (
	movesHotRead  = "load_p50_us, loads_per_s, allocs_per_op on browse_hot"
	movesColdRead = "load_p50_us, loads_per_s, cpu_us_per_op on catalog_cold; load_p99_us on browse_hot"
	movesWrite    = "write_p50_us, write_p99_us, loads_per_s on write_storm; none on the read-only workloads"
	movesPurge    = "failed (stale) and load_p99_us on write_storm"
	movesBlocks   = "load_p50_us, loads_per_s on direct_personalized"
)

// perLayer are the single-layer metrics, printed with --trace 1. A
// layer absent from a workload reports 0.
var perLayer = []metricSpec{
	{Name: "proxy.load_us", Unit: "us", Better: "lower"},
	{Name: "proxy.self_us", Unit: "us", Better: "lower", Moves: movesHotRead},
	{Name: "proxy.device_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesHotRead},
	{Name: "proxy.sketch_refreshes_per_load", Unit: "1/load", Better: "lower", Moves: movesColdRead},
	{Name: "proxy.revalidations_per_load", Unit: "1/load", Better: "lower", Moves: movesPurge},
	{Name: "proxy.unpersonalized_loads", Unit: "count", Better: "lower", Moves: "failed on direct_personalized; behind an edge the X-Blocks defect, see README.md"},

	{Name: "httpclient.calls_per_load", Unit: "1/load", Better: "lower", Moves: movesHotRead},
	{Name: "httpclient.self_us", Unit: "us", Better: "lower", Moves: movesHotRead},
	{Name: "httpclient.fetch_us", Unit: "us", Better: "lower", Moves: movesHotRead},
	{Name: "httpclient.fetch_sketch_us", Unit: "us", Better: "lower", Moves: movesHotRead},
	{Name: "httpclient.revalidate_us", Unit: "us", Better: "lower", Moves: movesPurge},
	{Name: "httpclient.fetch_blocks_us", Unit: "us", Better: "lower", Moves: movesBlocks},

	{Name: "loopback.device_hop_us", Unit: "us", Better: "lower"},
	{Name: "loopback.edge_hop_us", Unit: "us", Better: "lower"},

	{Name: "edge.requests_per_load", Unit: "1/load", Better: "lower", Moves: movesHotRead},
	{Name: "edge.self_us", Unit: "us", Better: "lower", Moves: movesHotRead + "; none on direct_personalized"},
	{Name: "edge.hit_us", Unit: "us", Better: "lower", Moves: movesHotRead + "; none on direct_personalized"},
	{Name: "edge.miss_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "edge.revalidate_us", Unit: "us", Better: "lower", Moves: movesPurge},
	{Name: "edge.bypass_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "edge.purge_us", Unit: "us", Better: "lower", Moves: movesPurge},
	{Name: "edge.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesHotRead},
	{Name: "edge.coalesced_waiters", Unit: "count", Better: "lower"},
	{Name: "edge.served_stale", Unit: "count", Better: "lower", Moves: movesPurge},
	{Name: "edge.upstream_errors", Unit: "count", Better: "lower", Moves: "failed on the edge workloads"},
	{Name: "edge.purge_lag_p50_us", Unit: "us", Better: "lower", Moves: movesPurge},
	{Name: "edge.purge_lag_p99_us", Unit: "us", Better: "lower", Moves: movesPurge},

	{Name: "httpapi.requests_per_load", Unit: "1/load", Better: "lower", Moves: movesColdRead},
	{Name: "httpapi.page_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "httpapi.sketch_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "httpapi.blocks_us", Unit: "us", Better: "lower", Moves: movesBlocks},
	{Name: "httpapi.write_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "httpapi.not_modified_ratio", Unit: "ratio", Better: "higher", Moves: movesPurge},

	{Name: "core.fetch_cdn_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "core.fetch_origin_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "core.fetch_sketch_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "core.fetch_blocks_us", Unit: "us", Better: "lower", Moves: movesBlocks},
	{Name: "core.write_pipeline_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "core.origin_renders_per_load", Unit: "1/load", Better: "lower", Moves: movesColdRead},
	{Name: "core.invalidations_per_write", Unit: "1/write", Better: "lower", Moves: movesWrite},
	{Name: "cdn.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesColdRead},

	{Name: "origin.render_product_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "origin.render_listing_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "origin.render_block_us", Unit: "us", Better: "lower", Moves: movesBlocks},

	{Name: "cachesketch.snapshot_marshal_us", Unit: "us", Better: "lower", Moves: movesColdRead},
	{Name: "cachesketch.sketch_bytes", Unit: "bytes", Better: "lower", Moves: movesColdRead},
	{Name: "cachesketch.flattens_per_snapshot", Unit: "ratio", Better: "lower", Moves: movesWrite},
	{Name: "cachesketch.tracked", Unit: "count", Better: "lower"},

	{Name: "invalidb.process_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "invalidb.registered", Unit: "count", Better: "lower"},
	{Name: "invalidb.matches_per_event", Unit: "1/event", Better: "lower", Moves: movesWrite},

	{Name: "wal.appends_per_write", Unit: "1/write", Better: "lower", Moves: movesWrite},
	{Name: "wal.fsyncs_per_write", Unit: "1/write", Better: "lower", Moves: movesWrite},
	{Name: "wal.batch_writes_per_write", Unit: "1/write", Better: "lower", Moves: movesWrite},
	{Name: "durable.snapshots", Unit: "count", Better: "lower", Moves: movesWrite},

	{Name: "write.p50_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "write.p99_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "check.errors", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "check.stale", Unit: "count", Better: "lower", Moves: "failed, beyond 0.1 % of the loads: the render/write race, see README.md"},
	{Name: "check.stale_unstamped", Unit: "count", Better: "lower", Moves: "failed, beyond 0.1 % of the loads: the render/write race, see README.md"},
	{Name: "check.pii_at_edge", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "check.slow", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "loadgen.off_path_us", Unit: "us", Better: "lower", Moves: "loads_per_s, cpu_us_per_op on catalog_cold; no latency percentile"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "loadgen.ops_hash", Unit: "fnv32", Better: "lower"},
}

// benchmarkFile is BENCHMARK.json, with exactly the keys the driver's
// contract names.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []benchWorkload  `json:"workloads"`
	EndToEnd   []benchEndToEnd  `json:"end_to_end"`
	PerLayer   []benchLayerStat `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayerStat struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured time the driver gives each run: 25
// one-second slices, of which the fastest five carry the timed metrics.
// The driver makes 92 runs inside 57 minutes, and a run takes its measured
// time and three to eight seconds of set-ups more, so this is as long as
// four workloads allow with a margin.
const runSeconds = 25

// benchmarkSpec renders the tables above in the BENCHMARK.json shape.
func benchmarkSpec() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "cmd/speedkit-load/run.sh"},
		Paths:      []string{"cmd/speedkit-load"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchWorkload{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, benchEndToEnd{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Gate})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, benchLayerStat{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return b
}

// marshalSpec encodes BENCHMARK.json deterministically.
func marshalSpec(b benchmarkFile) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(b); err != nil {
		return nil, fmt.Errorf("encode BENCHMARK.json: %w", err)
	}
	return buf.Bytes(), nil
}

// writeSpec writes BENCHMARK.json to path from the tables in this file,
// so the file and the program cannot drift apart.
func writeSpec(path string) error {
	data, err := marshalSpec(benchmarkSpec())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
