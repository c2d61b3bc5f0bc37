package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"speedkit/internal/gdpr"
	"speedkit/internal/lint/dataflow"
)

// sharedInfraSegments lists the packages that model shared infrastructure:
// code whose deployed equivalent runs outside the user's device and outside
// the first-party origin (the CDN, the caches, the sketches, the
// invalidation pipeline). The paper's compliance claim is precisely that
// these components never see identity.
var sharedInfraSegments = []string{
	"internal/cdn",
	"internal/cache",
	"internal/bloom",
	"internal/invalidb",
	"internal/cachesketch",
	// Durability persists coherence state to disk: anything it can reach
	// survives a crash in plaintext, so the identity ban is load-bearing
	// twice over (shared infra AND persisted bytes).
	"internal/wal",
	"internal/durable",
	// The edge cache proxy deploys on shared POPs: its library and its
	// command both serve (and persist) cached bodies on infrastructure
	// the user never consented to hand identity. Commands are covered by
	// path here and by deployment role below.
	"internal/edge",
	"cmd/speedkit-edge",
	// Cluster nodes exchange sketch frames over the network and persist
	// per-node WALs: every byte that enters the delta-exchange plane fans
	// out to N machines and to disk.
	"internal/cluster",
	// What the HTTP tiers on both sides of the fence share — body reads
	// and the JSON error envelope — so that none imports another: bytes
	// and status codes only.
	"internal/httpbody",
}

// identityBearingSegments are the packages whose types carry identity:
// session (users, carts, histories) and gdpr (consent records).
var identityBearingSegments = []string{
	"internal/session",
	"internal/gdpr",
}

// GDPRBoundary enforces the trust boundary statically: shared-infrastructure
// packages must not import identity-bearing packages, and their exported
// APIs must not carry struct fields that classify as PII under the same
// field classification the runtime flow auditor uses.
var GDPRBoundary = &Analyzer{
	Name: "gdprboundary",
	Doc: "shared-infrastructure packages (cdn, cache, bloom, invalidb, " +
		"cachesketch, wal, durable) must not import internal/session or " +
		"internal/gdpr and must not expose PII-classified fields in their " +
		"exported APIs",
	Run: runGDPRBoundary,
}

func isSharedInfra(path string) bool {
	for _, seg := range sharedInfraSegments {
		if pathHasSegment(path, seg) {
			return true
		}
	}
	return false
}

// hasDeployRole reports whether any file's package doc comment declares
//
//	//speedkit:deploy <role>
//
// Commands are not under internal/, so their deployment tier cannot be
// read off the import path; the directive lets a main package opt into
// the shared-infrastructure rules explicitly, and the edge command path
// is additionally pinned in sharedInfraSegments so forgetting the
// directive there does not open the boundary.
func hasDeployRole(files []*ast.File, role string) bool {
	for _, f := range files {
		if f.Doc == nil {
			continue
		}
		for _, c := range f.Doc.List {
			text := strings.TrimPrefix(c.Text, "//")
			if rest, ok := strings.CutPrefix(text, "speedkit:deploy"); ok {
				if strings.TrimSpace(rest) == role {
					return true
				}
			}
		}
	}
	return false
}

// isSharedInfraPass extends the path rule with the deployment-role
// directive, for analyzers that have the syntax at hand.
func isSharedInfraPass(pass *Pass) bool {
	return isSharedInfra(pass.Path) || hasDeployRole(pass.Files, "shared-infra")
}

func runGDPRBoundary(pass *Pass) {
	if !isSharedInfraPass(pass) {
		return
	}

	// Import side: no edge from shared infrastructure to identity-bearing
	// packages, not even from test files — a test importing session into
	// the CDN package is one refactor away from a production import.
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, seg := range identityBearingSegments {
				if pathHasSegment(path, seg) {
					pass.Reportf(imp.Pos(),
						"shared-infrastructure package %s imports identity-bearing package %s",
						pass.Path, path)
				}
			}
		}
	}

	// API side: no exported symbol may reach a struct field whose name
	// classifies as PII. The field list comes from the gdpr package itself
	// so the static gate and the runtime auditor share one source of truth.
	pii := map[string]bool{}
	for _, name := range gdpr.PIIFields() {
		pii[name] = true
	}
	w := &piiWalker{pass: pass, pii: pii, seen: map[types.Type]bool{}, reported: map[*types.Var]bool{}}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		w.walk(obj.Type())
	}
}

// piiWalker traverses the type graph reachable from exported symbols,
// staying within the package under analysis (foreign packages are either
// shared infrastructure themselves — analyzed separately — or unreachable
// thanks to the import check).
type piiWalker struct {
	pass     *Pass
	pii      map[string]bool
	seen     map[types.Type]bool
	reported map[*types.Var]bool
}

func (w *piiWalker) walk(t types.Type) {
	if t == nil || w.seen[t] {
		return
	}
	w.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil && t.Obj().Pkg() != w.pass.Pkg {
			return
		}
		w.walk(t.Underlying())
	case *types.Pointer:
		w.walk(t.Elem())
	case *types.Slice:
		w.walk(t.Elem())
	case *types.Array:
		w.walk(t.Elem())
	case *types.Chan:
		w.walk(t.Elem())
	case *types.Map:
		w.walk(t.Key())
		w.walk(t.Elem())
	case *types.Signature:
		w.walk(t.Params())
		w.walk(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			w.walk(t.At(i).Type())
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			w.walk(t.Method(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			field := t.Field(i)
			if field.Exported() {
				if canon := fieldToCanonical(field.Name()); w.pii[canon] && !w.reported[field] {
					w.reported[field] = true
					w.pass.Reportf(field.Pos(),
						"exported API of shared-infrastructure package %s carries PII field %q (classifies as %q)",
						w.pass.Path, field.Name(), canon)
				}
			}
			w.walk(field.Type())
		}
	}
}

// fieldToCanonical converts a Go field name to the snake_case canonical
// form the gdpr classification uses: "UserID" → "user_id", "Email" →
// "email". The conversion lives in the dataflow engine so the
// import-level and value-level analyzers share one definition.
func fieldToCanonical(name string) string {
	return dataflow.CanonicalField(name)
}
