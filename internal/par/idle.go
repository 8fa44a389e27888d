package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the goroutines doing diagnosis work, process-wide: every
// caller that has Entered, every helper MapIdleCtx runs, and every side
// task TryEnter admitted. Comparing it with GOMAXPROCS tells a fan-out
// whether a core is idle, so one lone caller spreads over the machine
// while callers that already fill it (a multi-worker campaign, a loaded
// server) keep their work on their own goroutines.
var busy atomic.Int64

// enteredKey marks a context whose goroutine is already counted in busy.
type enteredKey struct{}

// Enter counts the calling goroutine as busy until the returned function
// is called, and returns ctx marked as counted. Entering a marked context
// is a no-op, so a goroutine is counted once however many layers of
// entry points it passes through.
func Enter(ctx context.Context) (context.Context, func()) {
	if ctx.Value(enteredKey{}) != nil {
		return ctx, func() {}
	}
	busy.Add(1)
	return context.WithValue(ctx, enteredKey{}, true), func() { busy.Add(-1) }
}

// TryEnter claims an idle core for one side task: when fewer goroutines
// than GOMAXPROCS are busy it counts the task and returns its release
// function and true; otherwise it claims nothing and returns false.
func TryEnter() (func(), bool) {
	if !claimIdle(runtime.GOMAXPROCS(0)) {
		return nil, false
	}
	return func() { busy.Add(-1) }, true
}

// claimIdle counts one more busy goroutine if that leaves busy at most
// procs.
func claimIdle(procs int) bool {
	for {
		b := busy.Load()
		if b >= int64(procs) {
			return false
		}
		if busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

// MapIdleCtx is MapWorkerCtx with a width set by load instead of by the
// caller: the calling goroutine always works (as worker 0), and before
// each of its claims it adds a helper goroutine while a core is idle, up
// to maxWorkers goroutines in all (<= 0 means GOMAXPROCS). A helper
// retires before its next item once more goroutines than GOMAXPROCS are
// busy. With no idle core it is the serial loop on the caller. Callers
// should have Entered, so that they count themselves.
//
// Worker ids are unique among the goroutines running at one time, and a
// retired helper's id may pass to a later helper, so per-worker state
// indexed by id needs no locking. Results are index-ordered; ctx is
// checked before every item, and on cancellation the partially filled
// results are returned with ctx.Err(). Every helper has exited when
// MapIdleCtx returns, and a panic in fn on a helper is re-raised on the
// caller.
func MapIdleCtx[T any](ctx context.Context, maxWorkers, n int, fn func(worker, i int) T) ([]T, error) {
	out := make([]T, n)
	procs := runtime.GOMAXPROCS(0)
	if maxWorkers <= 0 {
		maxWorkers = procs
	}
	var (
		next, done atomic.Int64
		stop       atomic.Bool // the caller is done, or a helper panicked
		wg         sync.WaitGroup
		panicOnce  sync.Once
		panicVal   any
	)
	ids := make(chan int, maxWorkers-1) // helper ids not in use
	for w := 1; w < maxWorkers; w++ {
		ids <- w
	}
	helper := func(w int) {
		defer wg.Done()
		defer func() { ids <- w }()
		defer busy.Add(-1)
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicVal = r })
				stop.Store(true)
			}
		}()
		for ctx.Err() == nil && !stop.Load() && busy.Load() <= int64(procs) {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i] = fn(w, i)
			done.Add(1)
		}
	}
	func() {
		// Runs on a panic in the caller's fn too: no helper may outlive
		// the call and keep using per-worker state its caller releases.
		defer func() {
			stop.Store(true)
			wg.Wait()
		}()
		for ctx.Err() == nil && !stop.Load() {
			if int(next.Load()) < n-1 {
				select {
				case w := <-ids:
					if claimIdle(procs) {
						wg.Add(1)
						go helper(w)
					} else {
						ids <- w
					}
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i] = fn(0, i)
			done.Add(1)
		}
	}()
	if panicVal != nil {
		panic(panicVal)
	}
	if int(done.Load()) == n {
		return out, nil // every index completed, even if ctx fired at the end
	}
	return out, ctx.Err()
}
