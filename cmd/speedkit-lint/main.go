// Command speedkit-lint runs the repo-specific static-analysis suite
// (internal/lint) over the whole module: the GDPR-boundary, clock-,
// lock-, randomness- and obs-label-discipline analyzers plus the
// interprocedural piiflow pass that pin the invariants the paper's claims
// depend on.
//
// Usage:
//
//	speedkit-lint [flags] [./...]
//
// Diagnostics print one per line as "file:line: [analyzer] message" with
// module-relative paths. Findings recorded in the baseline file
// (lint.baseline.json at the module root by default) are reported but do
// not affect the exit status; exit status is 1 only when there are
// non-baselined findings, 2 on a load or usage error, and 0 otherwise.
//
// -json emits the findings as a JSON array; -sarif writes a SARIF 2.1.0
// log (for CI artifact upload) to the given path, with baselined findings
// marked baselineState "unchanged" and fresh ones "new".
// -write-baseline regenerates the baseline from the current findings —
// review additions to it like //lint:ignore directives.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"speedkit/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON instead of text")
	sarifPath := flag.String("sarif", "", "write a SARIF 2.1.0 log to `file` (\"-\" for stdout)")
	baselinePath := flag.String("baseline", "", "baseline `file` (default <module>/lint.baseline.json)")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite the baseline from current findings and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: speedkit-lint [flags] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	// The loader always analyzes the whole module; the only accepted
	// pattern is the conventional ./... spelling (or nothing).
	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "speedkit-lint: unsupported pattern %q (only ./...)\n", arg)
			os.Exit(2)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	mod, err := lint.LoadModule(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := mod.LoadAll()
	if err != nil {
		fatal(err)
	}

	diags := lint.Relativize(lint.Run(pkgs, lint.Analyzers()), mod.Root)

	if *baselinePath == "" {
		*baselinePath = filepath.Join(mod.Root, "lint.baseline.json")
	}
	if *writeBaseline {
		if err := lint.WriteBaseline(*baselinePath, diags); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "speedkit-lint: wrote %d finding(s) to %s\n", len(diags), *baselinePath)
		return
	}
	base, err := lint.ReadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	fresh, baselined := base.Split(diags)

	if *sarifPath != "" {
		data, err := lint.SARIF(lint.Analyzers(), fresh, baselined)
		if err != nil {
			fatal(err)
		}
		if *sarifPath == "-" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(*sarifPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	switch {
	case *jsonOut:
		type finding struct {
			File      string `json:"file"`
			Line      int    `json:"line"`
			Analyzer  string `json:"analyzer"`
			Message   string `json:"message"`
			Baselined bool   `json:"baselined,omitempty"`
		}
		out := []finding{}
		emit := func(ds []lint.Diagnostic, baselined bool) {
			for _, d := range ds {
				out = append(out, finding{
					File:      d.Pos.Filename,
					Line:      d.Pos.Line,
					Analyzer:  d.Analyzer,
					Message:   d.Message,
					Baselined: baselined,
				})
			}
		}
		emit(fresh, false)
		emit(baselined, true)
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	default:
		for _, d := range fresh {
			fmt.Println(d)
		}
		for _, d := range baselined {
			fmt.Printf("%s (baselined)\n", d)
		}
	}

	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "speedkit-lint: %d new finding(s) in %d package(s)\n", len(fresh), len(pkgs))
		os.Exit(1)
	}
	if len(baselined) > 0 {
		fmt.Fprintf(os.Stderr, "speedkit-lint: %d baselined finding(s), none new\n", len(baselined))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "speedkit-lint: %v\n", err)
	os.Exit(2)
}
