package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
)

// reset clears package state between tests (the package is process-global
// by design; tests exercise it in isolation).
func reset() {
	mu.Lock()
	hooks = nil
	ran = false
	mu.Unlock()
}

func TestExitRunsHooksInReverseOnce(t *testing.T) {
	reset()
	var order []int
	AtExit(func() { order = append(order, 1) })
	AtExit(func() { order = append(order, 2) })
	code := -1
	exit = func(c int) { code = c }
	defer func() { exit = os.Exit }()

	Exit(7)
	if code != 7 {
		t.Fatalf("exit code %d, want 7", code)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("hooks ran in order %v, want [2 1]", order)
	}

	// A second run (a second Exit, say from a signal-triggered shutdown)
	// is a no-op: hooks never run twice.
	runHooks()
	if len(order) != 2 {
		t.Fatalf("hooks re-ran: %v", order)
	}
}

func TestRunHooksThenExit(t *testing.T) {
	reset()
	runs := 0
	AtExit(func() { runs++ })
	runHooks()
	exited := false
	exit = func(int) { exited = true }
	defer func() { exit = os.Exit }()
	Exit(0)
	if runs != 1 {
		t.Fatalf("hook ran %d times, want 1", runs)
	}
	if !exited {
		t.Fatal("Exit did not terminate")
	}
}

func TestMainExitStatus(t *testing.T) {
	defer func() { exit = os.Exit }()
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{ExitCode(2), 2},
		{fmt.Errorf("wrapped: %w", ExitCode(3)), 3},
		{errors.New("boom"), 1},
	} {
		reset()
		hooked := false
		AtExit(func() { hooked = true })
		code := -1
		exit = func(c int) { code = c }
		Main(func(args []string, stdout, stderr io.Writer) error { return tc.err })
		if code != tc.want || !hooked {
			t.Errorf("run returned %v: exit %d (hooks ran: %v), want %d with hooks", tc.err, code, hooked, tc.want)
		}
	}
}
