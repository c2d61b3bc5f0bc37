package lint

import (
	"path/filepath"
	"testing"
)

// newTestModule opens the enclosing module (the repo itself), so fixture
// packages can import real speedkit packages.
func newTestModule(t *testing.T) *Module {
	t.Helper()
	m, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return m
}

// checkFixture loads testdata/<dir> under the given synthetic import path
// and asserts the analyzers' findings match its want annotations exactly.
func checkFixture(t *testing.T, dir, path string, analyzers ...*Analyzer) {
	t.Helper()
	m := newTestModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", dir), path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	problems, err := CheckFixture(pkg, analyzers...)
	if err != nil {
		t.Fatalf("CheckFixture: %v", err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestClockDisciplineFixture(t *testing.T) {
	checkFixture(t, "clockuse", "fixture/clockuse", ClockDiscipline)
}

func TestClockDisciplineBackoffFixture(t *testing.T) {
	// Retry/backoff code: raw sleeps, time.After deadlines, and timer
	// constructors are flagged; clock.Sleep / Stopwatch forms are clean.
	checkFixture(t, "backoffuse", "fixture/backoffuse", ClockDiscipline)
}

func TestClockDisciplineExemptsClockPackage(t *testing.T) {
	// Same kind of wall-clock read, but under internal/clock: clean.
	checkFixture(t, "clockexempt", "fixture/internal/clock/impl", ClockDiscipline)
}

func TestGDPRBoundaryFixture(t *testing.T) {
	checkFixture(t, "cdnfixture", "fixture/internal/cdn", GDPRBoundary)
}

func TestGDPRBoundaryCoversDurabilityTier(t *testing.T) {
	// The WAL/durable packages persist to disk; the same boundary applies.
	checkFixture(t, "walfixture", "fixture/internal/wal", GDPRBoundary)
}

func TestGDPRBoundaryIsTransitive(t *testing.T) {
	// An import that reaches session only through another package is
	// still a finding, and the finding names the chain.
	checkFixture(t, "coreinfra", "fixture/internal/cache", GDPRBoundary)
}

func TestGDPRBoundaryIgnoresDeviceSide(t *testing.T) {
	// PII and session imports outside shared infrastructure: clean.
	checkFixture(t, "deviceside", "fixture/internal/device", GDPRBoundary)
}

func TestLockCheckFixture(t *testing.T) {
	checkFixture(t, "locks", "fixture/locks", LockCheck)
}

func TestRandDisciplineFixture(t *testing.T) {
	checkFixture(t, "randuse", "fixture/randuse", RandDiscipline)
}

func TestObsLabelsFixture(t *testing.T) {
	checkFixture(t, "obsuse", "fixture/obsuse", ObsLabels)
}

func TestObsLabelsAllowsObsInSharedInfra(t *testing.T) {
	// obs links no identity-bearing package, so shared infrastructure
	// may count through it: clean under both analyzers.
	checkFixture(t, "obsinfra", "fixture/internal/cache", ObsLabels, GDPRBoundary)
}

func TestObsLabelsCoversSlogFields(t *testing.T) {
	// The structured log gets the same key/value fence as obs labels:
	// PII-classified constant keys and identity-derived values in Str /
	// Int / Msg / Named positions are flagged; anonymous state is clean.
	checkFixture(t, "sloguse", "fixture/sloguse", ObsLabels)
}

func TestGDPRBoundaryCoversCommands(t *testing.T) {
	// A main package with the "//speedkit:deploy shared-infra" directive
	// gets the full boundary treatment: the synthetic path is NOT under
	// internal/ or cmd/speedkit-edge, so only the directive applies.
	checkFixture(t, "edgecmd", "fixture/cmd/edgecmd", GDPRBoundary)
}

func TestPIIFlowFixture(t *testing.T) {
	// Interprocedural taint: ≥2-hop flows into a WAL frame, a metric
	// label, and a CDN body; sanitizer cut-offs; struct-field
	// sensitivity; suppression directives.
	checkFixture(t, "piiflow", "fixture/piiflow", PIIFlow)
}

func TestPIIFlowCoversSlogSink(t *testing.T) {
	// Interprocedural taint into structured-log record positions, with
	// the gdpr sanitizers cutting the flow.
	checkFixture(t, "slogflow", "fixture/slogflow", PIIFlow)
}

func TestPIIFlowCoversEdgeProxy(t *testing.T) {
	// Edge purge keys are served and persisted on shared POPs:
	// identity-derived keys are flagged, pseudonymized ones pass.
	checkFixture(t, "edgeflow", "fixture/edgeflow", PIIFlow)
}

func TestPIIFlowCoversClusterDeltaExchange(t *testing.T) {
	// Cluster report writers become wire frames replicated to every
	// node and journaled into per-node WALs: session-derived keys are
	// flagged, pseudonymized and anonymous resource IDs pass.
	checkFixture(t, "clusterflow", "fixture/clusterflow", PIIFlow)
}
