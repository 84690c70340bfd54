// Package leakcheck is the test helper that holds fault, cancellation and
// chaos tests to leaving nothing behind: the goroutines a test started have
// exited and every scratch buffer a kernel drew from internal/pool went back.
// internal/core's tests add to it that no value array on the pool's shelves
// belongs to a live vector.
package leakcheck

import (
	"runtime"
	"testing"
	"time"

	"graphblas/internal/pool"
)

// settle bounds how long the check waits for goroutines that are finishing
// when the test ends (a worker returning from its last chunk, a server's
// connection handler unwinding).
const settle = 2 * time.Second

// AssertQuiescent records the goroutine count and the pool's unreturned
// draws when it is called, at the start of a test, and registers the check
// that the test ends with neither above what it found.
func AssertQuiescent(t testing.TB) {
	t.Helper()
	goroutines, drawn := runtime.NumGoroutine(), pool.Outstanding()
	t.Cleanup(func() {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(settle); n > goroutines && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(5 * time.Millisecond)
		}
		if n > goroutines {
			t.Errorf("leak: %d goroutines running at the end, %d at the start", n, goroutines)
		}
		if d := pool.Outstanding() - drawn; d != 0 {
			t.Errorf("leak: %d pool draws not returned", d)
		}
	})
}
