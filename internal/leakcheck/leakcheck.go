// Package leakcheck is the goroutine-leak assertion the TestMain of each
// package that starts servers, workers and pollers shares: a suite that
// passes but leaves goroutines running has failed to stop something.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests and then, if they passed, waits for the
// goroutines they started to be gone. Any still alive after the grace
// period fail the run with their stacks, so the survivor names itself.
func Main(m *testing.M) {
	before := len(others())
	code := m.Run()
	if code == 0 {
		if left := settle(before, 5*time.Second); len(left) > before {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests (%d ran before them):\n\n%s\n",
				len(left)-before, before, strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// others returns the stack of every goroutine but the caller's and the
// process-lifetime signal loop the testing package starts when fuzzing.
func others() []string {
	buf := make([]byte, 1<<20)
	all := strings.Split(strings.TrimSpace(string(buf[:runtime.Stack(buf, true)])), "\n\n")
	var out []string
	for _, g := range all[1:] { // the first stack is the caller's
		if !strings.Contains(g, "os/signal.loop") {
			out = append(out, g)
		}
	}
	return out
}

// settle polls until no more than want goroutines are left, or grace is
// spent — connections closing and contexts unwinding take a moment, not
// forever — and returns the ones left.
func settle(want int, grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		left := others()
		if len(left) <= want || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}
