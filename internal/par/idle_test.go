package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// saturate counts k extra busy goroutines, as k other callers would; the
// returned function releases them.
func saturate(k int) func() {
	var leaves []func()
	for i := 0; i < k; i++ {
		_, leave := Enter(context.Background())
		leaves = append(leaves, leave)
	}
	return func() {
		for _, l := range leaves {
			l()
		}
	}
}

// checkBusy asserts the busy count returned to its value before the test.
func checkBusy(t *testing.T, want int64) {
	t.Helper()
	if got := busy.Load(); got != want {
		t.Fatalf("busy = %d after the call, want %d", got, want)
	}
}

func TestMapIdleOrderedAtAnyLoad(t *testing.T) {
	base := busy.Load()
	procs := runtime.GOMAXPROCS(0)
	for _, extra := range []int{0, procs, procs + 2} {
		release := saturate(extra)
		ctx, leave := Enter(context.Background())
		out, err := MapIdleCtx(ctx, 0, 300, func(_, i int) int {
			time.Sleep(time.Duration(i%3) * 10 * time.Microsecond)
			return i * i
		})
		leave()
		release()
		if err != nil {
			t.Fatalf("extra=%d: %v", extra, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("extra=%d: out[%d] = %d", extra, i, v)
			}
		}
		checkBusy(t, base)
	}
	if out, err := MapIdleCtx(context.Background(), 0, 0, func(_, i int) int { return i }); err != nil || len(out) != 0 {
		t.Fatalf("n=0: %v, %v", out, err)
	}
}

// TestMapIdleNoHelperWhenBusy: with every core already counted busy at
// entry, the caller does all the work itself.
func TestMapIdleNoHelperWhenBusy(t *testing.T) {
	base := busy.Load()
	release := saturate(runtime.GOMAXPROCS(0) - 1)
	ctx, leave := Enter(context.Background())
	out, err := MapIdleCtx(ctx, 0, 200, func(w, _ int) int {
		time.Sleep(20 * time.Microsecond)
		return w
	})
	leave()
	release()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range out {
		if w != 0 {
			t.Fatalf("item %d ran on helper %d with no idle core", i, w)
		}
	}
	checkBusy(t, base)
}

// TestMapIdleHelperRetires: once more goroutines than cores are busy, a
// running helper finishes its item and takes no other.
func TestMapIdleHelperRetires(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skip("no helper can start with GOMAXPROCS=1")
	}
	base := busy.Load()
	ctx, leave := Enter(context.Background())
	started := make(chan struct{})
	var helperItems atomic.Int64
	var release func()
	out, err := MapIdleCtx(ctx, 0, 200, func(w, i int) int {
		if w != 0 {
			if helperItems.Add(1) == 1 {
				release = saturate(procs)
				close(started)
			}
			return i
		}
		select {
		case <-started:
		case <-time.After(5 * time.Second):
		}
		return i
	})
	leave()
	if release == nil {
		t.Fatal("no helper started on an idle machine")
	}
	release()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if n := helperItems.Load(); n != 1 {
		t.Fatalf("helper scored %d items after the machine was oversubscribed, want 1", n)
	}
	checkBusy(t, base)
}

func TestEnterNestedCountsOnce(t *testing.T) {
	base := busy.Load()
	ctx, leave := Enter(context.Background())
	inner, leaveInner := Enter(ctx)
	if busy.Load() != base+1 {
		t.Fatalf("busy = %d after nested Enter, want %d", busy.Load(), base+1)
	}
	_, leaveAgain := Enter(inner)
	leaveAgain()
	leaveInner()
	if busy.Load() != base+1 {
		t.Fatalf("nested leave released the outer count: busy = %d", busy.Load())
	}
	leave()
	checkBusy(t, base)
}

func TestTryEnter(t *testing.T) {
	base := busy.Load()
	procs := runtime.GOMAXPROCS(0)
	release := saturate(procs - 1)
	rel, ok := TryEnter()
	if !ok {
		t.Fatal("TryEnter refused the last idle core")
	}
	if _, ok := TryEnter(); ok {
		t.Fatal("TryEnter claimed a core with none idle")
	}
	rel()
	release()
	checkBusy(t, base)
}

// TestMapIdleCancelMidRun: cancellation returns ctx.Err() promptly and
// leaves no helper behind.
func TestMapIdleCancelMidRun(t *testing.T) {
	base := busy.Load()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ctx, leave := Enter(ctx)
	var processed atomic.Int64
	const n = 1 << 20
	start := time.Now()
	_, err := MapIdleCtx(ctx, 0, n, func(_, i int) int {
		if processed.Add(1) == 32 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return i
	})
	elapsed := time.Since(start)
	leave()
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p := processed.Load(); p >= n/2 {
		t.Fatalf("processed %d of %d items after cancel", p, n)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
	checkBusy(t, base)
}

// TestMapIdleHelperPanic: a panic on a helper surfaces on the caller
// after every helper has exited.
func TestMapIdleHelperPanic(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("no helper can start with GOMAXPROCS=1")
	}
	base := busy.Load()
	ctx, leave := Enter(context.Background())
	defer leave()
	var got any
	func() {
		defer func() { got = recover() }()
		var once sync.Once
		started := make(chan struct{})
		MapIdleCtx(ctx, 0, 1000, func(w, i int) int {
			if w != 0 {
				once.Do(func() { close(started) })
				panic("boom")
			}
			select {
			case <-started:
			case <-time.After(5 * time.Second):
			}
			return i
		})
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the helper's panic", got)
	}
	checkBusy(t, base+1)
}

// TestMapIdleStress races concurrent idle-core maps and cancellations;
// meaningful under -race.
func TestMapIdleStress(t *testing.T) {
	base := busy.Load()
	var wg sync.WaitGroup
	for round := 0; round < 16; round++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx, leave := Enter(ctx)
			defer leave()
			go func() {
				time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
				cancel()
			}()
			_, _ = MapIdleCtx(ctx, 0, 4096, func(w, i int) int { return w + i })
		}(round)
	}
	wg.Wait()
	checkBusy(t, base)
}
