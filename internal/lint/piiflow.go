package lint

import (
	"go/types"
	"strings"

	"speedkit/internal/gdpr"
	"speedkit/internal/lint/dataflow"
)

// PIIFlow is the value-level GDPR gate: a summary-based interprocedural
// taint analysis proving that no PII value — a field of an
// identity-bearing type, or such a value as a whole — flows into shared
// infrastructure. Where gdprboundary bans *imports* and *type shapes*,
// piiflow follows the values themselves: a session email smuggled
// through three string-typed helpers into a WAL frame is invisible to
// the import check and is exactly what this analyzer reports.
//
// Sources are reads of PII-classified fields from types declared in
// internal/session or internal/gdpr (classification is fail-closed and
// shared with the runtime auditor via gdpr.Classify), plus any such
// value used as a whole. Sanitizers — gdpr.Pseudonymize and
// gdpr.StripPII — cut taint. Sinks are the API boundaries where bytes
// leave the device's trust domain: WAL appends and snapshot checkpoints,
// the durability journal, coherence-sketch reports, obs metric labels
// and trace attributes, structured-log records (every slog value
// position, fail-closed — the runtime denied-key redaction is the
// backstop, not the fence), CDN edge fills and purges, and fmt/log
// printing inside shared-infra packages.
//
// Test files are exempt, matching the rest of the suite.
var PIIFlow = &Analyzer{
	Name: "piiflow",
	Doc: "no PII value (per gdpr.Classify, fail-closed) may flow — through " +
		"any number of calls — into WAL frames, snapshot files, the " +
		"durability journal, sketch reports, obs labels, trace attributes, structured-log " +
		"records, CDN edges, or shared-infra printing; " +
		"gdpr.Pseudonymize/StripPII cut the flow",
	RunModule: runPIIFlow,
}

func runPIIFlow(mp *ModulePass) {
	dpkgs := dataflowPackages(mp.Pkgs)
	if len(dpkgs) == 0 {
		return
	}
	prog := dataflow.NewProgram(dpkgs)
	ta := dataflow.NewTaintAnalysis(prog, piiTaintConfig())
	for _, f := range ta.Findings() {
		mp.Reportf(f.Pkg.Fset, f.Pos,
			"PII value (%s) reaches %s via %s",
			strings.Join(f.Sources, ", "), f.Sink, strings.Join(f.Chain, " -> "))
	}
}

// dataflowPackages converts loaded packages to the engine's shape,
// dropping test files (and all-test packages) — the invariants the
// suite checks exempt test code.
func dataflowPackages(pkgs []*Package) []*dataflow.Package {
	var out []*dataflow.Package
	for _, pkg := range pkgs {
		var files = pkg.Files[:0:0]
		for _, f := range pkg.Files {
			if !pkg.testFiles[f] {
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			continue
		}
		out = append(out, &dataflow.Package{
			Path:  pkg.Path,
			Fset:  pkg.Fset,
			Files: files,
			Types: pkg.Types,
			Info:  pkg.Info,
		})
	}
	return out
}

// piiTaintConfig binds the taint engine to the repo's GDPR model: the
// same classification table the runtime auditor uses, the same identity
// packages gdprboundary defends, and the sanitizers the gdpr package
// exports.
func piiTaintConfig() dataflow.TaintConfig {
	return dataflow.TaintConfig{
		ClassifyField: func(canonical string) dataflow.FieldClass {
			if gdpr.Classify(canonical) == gdpr.PII {
				return dataflow.FieldPII
			}
			return dataflow.FieldClean
		},
		IsIdentityPkg: func(path string) bool {
			for _, seg := range identityBearingSegments {
				if pathHasSegment(path, seg) {
					return true
				}
			}
			return false
		},
		IsSanitizer: func(fn *types.Func) bool {
			if fn.Pkg() == nil || !pathHasSegment(fn.Pkg().Path(), "internal/gdpr") {
				return false
			}
			switch fn.Name() {
			case "Pseudonymize", "StripPII":
				return true
			}
			return false
		},
		Sinks: piiSinks(),
	}
}

// piiSinks catalogs the shared-infrastructure entry points. Matching is
// by callee identity (package path segment, receiver type, name), so
// the catalog works in fixtures too, where only the caller's AST is
// loaded. Params are unified indices: receiver 0, then arguments; nil
// means every input.
func piiSinks() []dataflow.SinkSpec {
	printScope := func(callerPkg string) bool { return isSharedInfra(callerPkg) }
	return []dataflow.SinkSpec{
		{
			// Also wal.Snapshotted's Append, which is the embedded Log's.
			Description: "WAL append (persisted shared state)",
			Match:       sinkMethod("internal/wal", "Log", "Append"),
			Params:      []int{1},
		},
		{
			// The export callback's return value is the snapshot file.
			Description: "snapshot checkpoint (persisted shared state)",
			Match:       sinkMethod("internal/wal", "Snapshotted", "Checkpoint"),
			Params:      []int{1},
		},
		{
			Description: "durability journal (persisted shared state)",
			Match: anyOf(
				sinkMethod("internal/durable", "Store", "JournalCachedRead"),
				sinkMethod("internal/durable", "Store", "JournalWrite"),
			),
			Params: []int{1},
		},
		{
			Description: "coherence sketch report (broadcast to all devices)",
			Match: anyOf(
				sinkMethod("internal/cachesketch", "Server", "ReportCachedRead"),
				sinkMethod("internal/cachesketch", "Server", "ReportWrite"),
			),
			Params: []int{1},
		},
		{
			Description: "obs metric label (exported by /metrics)",
			Match:       sinkFunc("internal/obs", "L"),
		},
		{
			Description: "trace attribute (exported by /debug/traces)",
			Match: anyOf(
				sinkMethod("internal/obs", "Trace", "AddSpan"),
				sinkMethod("internal/obs", "Trace", "AddEvent"),
				sinkMethod("internal/obs", "Trace", "SetSource"),
				sinkMethod("internal/obs", "Trace", "MarkDegraded"),
				sinkMethod("internal/obs", "Tracer", "Start"),
				sinkMethod("internal/obs", "Tracer", "StartRemote"),
			),
		},
		{
			Description: "structured log record (process log, exported off-host)",
			Match: anyOf(
				sinkMethod("internal/slog", "Event", "Str"),
				sinkMethod("internal/slog", "Event", "Msg"),
				sinkMethod("internal/slog", "Event", "Err"),
				sinkMethod("internal/slog", "Logger", "Named"),
			),
		},
		{
			Description: "CDN edge fill (shared cache body)",
			Match:       sinkMethod("internal/cdn", "Edge", "Fill"),
			Params:      []int{1},
		},
		{
			Description: "CDN purge key (visible to the shared tier)",
			Match:       sinkMethod("internal/cdn", "CDN", "Purge"),
			Params:      []int{1},
		},
		{
			// The edge proxy persists entries to its disk tier and
			// serves them to arbitrary clients: anything committed or
			// journaled there leaves the trust boundary twice over.
			Description: "edge cache commit (served and persisted on shared POPs)",
			Match: anyOf(
				sinkMethod("internal/edge", "Proxy", "Purge"),
				sinkMethod("internal/edge", "diskTier", "appendFill"),
				sinkMethod("internal/edge", "diskTier", "appendPurge"),
			),
			Params: []int{1},
		},
		{
			// The kernel's report writers: a reported key enters a node's
			// sketch, whose frames replicate to every cluster node, and
			// its WAL. A session ID reaching a frame would be a
			// cluster-wide identity broadcast.
			Description: "cluster delta-exchange frame (replicated to all nodes)",
			Match: anyOf(
				sinkMethod("internal/cluster", "Cluster", "ReportWrite"),
				sinkMethod("internal/cluster", "Cluster", "ReportFill"),
				sinkMethod("internal/cluster", "Cluster", "RecordRead"),
				sinkMethod("internal/cluster", "Node", "ReportWrite"),
				sinkMethod("internal/cluster", "Node", "ReportFill"),
				sinkMethod("internal/cluster", "Node", "RecordRead"),
			),
			Params: []int{1},
		},
		{
			Description:  "print/log inside shared infrastructure",
			Match:        printerFunc,
			CallerScoped: printScope,
		},
	}
}

// sinkMethod matches a method by declaring-package segment, receiver
// type name, and method name.
func sinkMethod(pkgSeg, recv, name string) func(*types.Func) bool {
	return func(fn *types.Func) bool {
		if fn.Name() != name || fn.Pkg() == nil || !pathHasSegment(fn.Pkg().Path(), pkgSeg) {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return false
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == recv
	}
}

// sinkFunc matches a package-level function by package segment and name.
func sinkFunc(pkgSeg, name string) func(*types.Func) bool {
	return func(fn *types.Func) bool {
		if fn.Name() != name || fn.Pkg() == nil || !pathHasSegment(fn.Pkg().Path(), pkgSeg) {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() == nil
	}
}

func anyOf(matchers ...func(*types.Func) bool) func(*types.Func) bool {
	return func(fn *types.Func) bool {
		for _, m := range matchers {
			if m(fn) {
				return true
			}
		}
		return false
	}
}

// printerFunc matches the fmt and log output functions. Sprint-style
// formatters are deliberately absent: they only transform values (the
// engine's conservative default keeps their results tainted), the
// boundary is crossed when something is printed.
func printerFunc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	case "log":
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln",
			"Panic", "Panicf", "Panicln", "Output":
			return true
		}
	}
	return false
}
