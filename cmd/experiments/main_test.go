package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestMain lets a test run the command as its own process (the test binary
// re-executed with EXPERIMENTS_ARGS set), so exit statuses and exit hooks
// are observable.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
	}
	os.Exit(m.Run())
}

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(registry) || !strings.HasPrefix(lines[0], "fig2     query census") {
		t.Errorf("-list printed %d lines, want %d:\n%s", len(lines), len(registry), stdout.String())
	}
}

func TestRunOneWithMarkdown(t *testing.T) {
	md := filepath.Join(t.TempDir(), "report.md")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "fig2", "-out", md}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if out := stdout.String(); !strings.HasPrefix(out, "=== fig2 (") || !strings.Contains(out, "Fig. 2 — query census (3200 queries") {
		t.Errorf("fig2 report:\n%s", out)
	}
	raw, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "# Experiment reports (seed 42)\n\n## fig2 — query census") {
		t.Errorf("markdown report:\n%s", raw)
	}
}

// TestFirstUnknownIDIsNamed: with two unknown ids around a known one, the
// first one given is the one named, on every run.
func TestFirstUnknownIDIsNamed(t *testing.T) {
	for i := 0; i < 20; i++ {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-run", "nope1,fig2,nope2"}, &stdout, &stderr)
		var code cli.ExitCode
		if !errors.As(err, &code) || code != 2 {
			t.Fatalf("run %d: %v, want exit status 2", i, err)
		}
		if got := stderr.String(); !strings.HasPrefix(got, `unknown experiment "nope1"`) {
			t.Fatalf("run %d: stderr %q, want nope1 named", i, got)
		}
	}
}

// TestErrorExitsPrintTimings: an unknown id exits 2 and a failed -out
// write exits 1, and both still print the -timings table.
func TestErrorExitsPrintTimings(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "report.md")
	for _, tc := range []struct {
		args, stderr string
		code         int
	}{
		{"-run nope -timings", `unknown experiment "nope" (use -list)`, 2},
		{"-run fig2 -timings -out " + missing, "writing " + missing, 1},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "EXPERIMENTS_ARGS="+tc.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("%s: %v, want exit status %d", tc.args, err, tc.code)
		}
		got := stderr.String()
		if !strings.HasPrefix(got, tc.stderr) || !strings.Contains(got, "\nno stage timings recorded") {
			t.Errorf("%s: stderr %q, want %q and then the timings table", tc.args, got, tc.stderr)
		}
	}
}
