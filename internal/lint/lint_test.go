package lint

import (
	"go/token"
	"testing"
)

func TestPathHasSegment(t *testing.T) {
	cases := []struct {
		path, seg string
		want      bool
	}{
		{"speedkit/internal/cache", "internal/cache", true},
		{"speedkit/internal/cachesketch", "internal/cache", false},
		{"internal/cache", "internal/cache", true},
		{"fixture/internal/cdn", "internal/cdn", true},
		{"speedkit/internal/clock/impl", "internal/clock", true},
		{"speedkit/internal/session", "internal/gdpr", false},
		{"cache", "internal/cache", false},
	}
	for _, c := range cases {
		if got := pathHasSegment(c.path, c.seg); got != c.want {
			t.Errorf("pathHasSegment(%q, %q) = %t, want %t", c.path, c.seg, got, c.want)
		}
	}
}

func TestFieldToCanonical(t *testing.T) {
	cases := map[string]string{
		"Email":        "email",
		"UserID":       "user_id",
		"Cart":         "cart",
		"HTTPServer":   "http_server",
		"ABBucket":     "ab_bucket",
		"path":         "path",
		"SessionToken": "session_token",
	}
	for in, want := range cases {
		if got := fieldToCanonical(in); got != want {
			t.Errorf("fieldToCanonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 12, Column: 3},
		Analyzer: "clockdiscipline",
		Message:  "direct time.Now",
	}
	if got, want := d.String(), "x.go:12: [clockdiscipline] direct time.Now"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestAnalyzersAreRegistered(t *testing.T) {
	want := map[string]bool{
		"gdprboundary": true, "clockdiscipline": true,
		"lockcheck": true, "randdiscipline": true,
		"obslabels": true, "piiflow": true,
	}
	for _, a := range Analyzers() {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %q missing doc", a.Name)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
	}
	for name := range want {
		t.Errorf("analyzer %q not registered", name)
	}
}
