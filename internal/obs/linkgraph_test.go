package obs

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestLinkGraph pins what the fences rest on: obs links no
// identity-bearing package, so the shared edge counts through it, and
// every command that links identity links internal/gdpr, whose init
// denies the PII field names as log keys and label keys.
func TestLinkGraph(t *testing.T) {
	const (
		obsPkg     = "speedkit/internal/obs"
		gdprPkg    = "speedkit/internal/gdpr"
		sessionPkg = "speedkit/internal/session"
		edgeCmd    = "speedkit/cmd/speedkit-edge"
	)
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "list",
		"-f", `{{.ImportPath}} {{join .Deps " "}}`, obsPkg, "speedkit/cmd/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		deps[f[0]] = f[1:]
	}
	links := func(pkg, dep string) bool { return slices.Contains(deps[pkg], dep) }

	for _, id := range []string{gdprPkg, sessionPkg} {
		if links(obsPkg, id) {
			t.Errorf("%s links %s", obsPkg, id)
		}
		if links(edgeCmd, id) {
			t.Errorf("%s links %s", edgeCmd, id)
		}
	}
	if !links(edgeCmd, obsPkg) {
		t.Errorf("%s does not count through %s", edgeCmd, obsPkg)
	}
	cmds := 0
	for pkg := range deps {
		if !strings.HasPrefix(pkg, "speedkit/cmd/") {
			continue
		}
		cmds++
		if links(pkg, sessionPkg) && !links(pkg, gdprPkg) {
			t.Errorf("%s links %s without %s's fences", pkg, sessionPkg, gdprPkg)
		}
	}
	if cmds == 0 || len(deps[edgeCmd]) == 0 {
		t.Fatalf("go list named %d commands:\n%s", cmds, out)
	}
}
