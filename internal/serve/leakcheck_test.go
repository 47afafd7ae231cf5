package serve

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakTargets are the long-lived goroutines this package owns. Every
// campaign starts exactly one actor; after its manager shuts down (or
// the campaign is deleted) none may survive.
var leakTargets = []string{
	"serve.(*Campaign).actor",
}

// leakedServeGoroutines snapshots all goroutine stacks and returns the
// ones still running campaign actors.
func leakedServeGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		for _, target := range leakTargets {
			if strings.Contains(g, target) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// checkLeaked fails the test when campaign goroutines outlive their
// shutdown. Actor exits are asynchronous (close() returns before the
// actor drains its mailbox), so poll briefly before declaring a leak.
// Tests in this package run sequentially, so a global scan is safe.
func checkLeaked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := leakedServeGoroutines()
		if len(stacks) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d campaign goroutine(s) leaked past shutdown:\n%s",
				len(stacks), strings.Join(stacks, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
