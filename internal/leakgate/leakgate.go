// Package leakgate fails a test binary whose tests leave goroutines running
// the code under test. A package calls it from TestMain:
//
//	func TestMain(m *testing.M) { leakgate.Main(m, "igdb/internal/server") }
//
// It reads runtime.Stack, so it needs nothing but the standard library
// and sees any goroutine that outlives its owner, whatever made it.
package leakgate

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long goroutines get to finish after the tests pass.
const grace = 5 * time.Second

// Main runs m's tests. When they pass, it waits up to five seconds for
// every goroutine but its own with a frame in one of pkgs (import paths)
// to end, and fails the binary, listing their stacks, if any is left.
func Main(m *testing.M, pkgs ...string) {
	code := m.Run()
	if code == 0 {
		if left := Running(grace, pkgs...); len(left) > 0 {
			//lint:ignore logdiscipline the gate's report belongs on the test binary's stderr, beside go test's own
			fmt.Fprintf(os.Stderr, "leakgate: %d goroutine(s) outlived the tests:\n\n%s\n", len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// Running polls for up to wait until no goroutine but the caller's has a
// frame in one of pkgs, and returns the stacks of those that still do.
func Running(wait time.Duration, pkgs ...string) []string {
	deadline := time.Now().Add(wait)
	for {
		left := running(pkgs)
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// running returns the stack of every goroutine but the caller's that has
// a frame in one of pkgs.
func running(pkgs []string) []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Stacks are separated by blank lines, the caller's first. A frame's
	// line starts with its function's name; a "created by" line does not.
	var left []string
	for _, stack := range strings.Split(string(buf), "\n\n")[1:] {
		for _, p := range pkgs {
			if strings.Contains(stack, "\n"+p+".") {
				left = append(left, stack)
				break
			}
		}
	}
	return left
}
