// Package cli is the shared exit path of the repo's commands. Its one job
// is making cleanup reliable: hooks registered with AtExit (flushing the
// obs timings table, draining a server, removing a partial output file)
// run exactly once on every exit route — Main's return, Fatalf, or a
// signal-triggered shutdown — where a bare os.Exit would silently skip
// deferred cleanup (-timings tables went missing on error paths that way).
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

var (
	mu    sync.Mutex
	hooks []func()
	ran   bool

	// exit is swapped out by tests; everything funnels through it.
	exit = os.Exit
)

// AtExit registers a cleanup hook. Hooks run in reverse registration order
// (like defers), exactly once, on Exit or Fatalf.
func AtExit(hook func()) {
	mu.Lock()
	defer mu.Unlock()
	hooks = append(hooks, hook)
}

// runHooks runs the registered hooks (reverse order, once).
func runHooks() {
	mu.Lock()
	if ran {
		mu.Unlock()
		return
	}
	ran = true
	hs := hooks
	mu.Unlock()
	for i := len(hs) - 1; i >= 0; i-- {
		hs[i]()
	}
}

// Exit runs the hooks and terminates with the given status code.
func Exit(code int) {
	runHooks()
	exit(code)
}

// Fatalf prints the message to stderr, runs the hooks, and exits 1.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	Exit(1)
}

// ExitCode is the error a command's run function returns to end with that
// status and no further message: run has already said why.
type ExitCode int

func (c ExitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

// Main runs a command's body on the process's arguments and standard
// streams, then exits through the hooks: 0 when run returns nil, the status
// an ExitCode names, and otherwise 1 with the error on stderr.
func Main(run func(args []string, stdout, stderr io.Writer) error) {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var code ExitCode
	switch {
	case err == nil:
		Exit(0)
	case errors.As(err, &code):
		Exit(int(code))
	default:
		Fatalf("%v", err)
	}
}
