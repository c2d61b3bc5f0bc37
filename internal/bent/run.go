package bent

import (
	"bytes"
	"fmt"
	"io"
	"os/exec"
)

// Runner executes suites through `go test -bench` and parses the output.
type Runner struct {
	// Go is the go tool to invoke (default "go").
	Go string
	// Benchtime overrides every suite's benchtime when non-empty (the
	// CI smoke pass sets "1x").
	Benchtime string
	// Stderr receives the go test stderr (and a copy of stdout when
	// Verbose); nil discards.
	Stderr io.Writer
	// Verbose mirrors the raw benchmark output to Stderr as it is
	// produced, so failures are diagnosable from CI logs.
	Verbose bool
}

// Run executes one suite and returns its parsed report. A non-zero go
// test exit is an error (benchmarks must compile and run); parse
// problems surface as an empty Benchmarks slice the caller rejects.
func (r *Runner) Run(s Suite) (Report, error) {
	goTool := r.Go
	if goTool == "" {
		goTool = "go"
	}
	benchtime := s.Benchtime
	if r.Benchtime != "" {
		benchtime = r.Benchtime
	}
	args := []string{"test", "-run", "^$", "-bench", s.Bench, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	if s.CPU != "" {
		args = append(args, "-cpu", s.CPU)
	}
	args = append(args, s.Package)

	cmd := exec.Command(goTool, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = r.Stderr
	if err := cmd.Run(); err != nil {
		return Report{}, fmt.Errorf("suite %s: go %v: %w\n%s", s.Name, args, err, out.String())
	}
	if r.Verbose && r.Stderr != nil {
		r.Stderr.Write(out.Bytes())
	}
	rep, err := Parse(&out)
	if err != nil {
		return Report{}, fmt.Errorf("suite %s: parse: %w", s.Name, err)
	}
	rep.Suite = s.Name
	rep.Note = s.Note
	if len(rep.Benchmarks) == 0 {
		return Report{}, fmt.Errorf("suite %s: no benchmark results (pattern %q in %s)",
			s.Name, s.Bench, s.Package)
	}
	return rep, nil
}
