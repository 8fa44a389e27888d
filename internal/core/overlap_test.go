package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/hgraph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/policy"
)

// fullResult is everything one diagnosis hands back.
type fullResult struct {
	rep   *diagnosis.Report
	sg    *hgraph.Subgraph
	out   *policy.Outcome
	multi *diagnosis.Report
	mOut  *policy.Outcome
}

// diagnoseBoth runs the single- and multi-fault flows on one log.
func diagnoseBoth(ctx context.Context, fw *Framework, b *dataset.Bundle, log *failurelog.Log) (fullResult, error) {
	var r fullResult
	var err error
	if r.rep, r.sg, r.out, err = fw.DiagnoseFullCtx(ctx, b, log); err != nil {
		return r, err
	}
	r.multi, r.mOut, err = fw.DiagnoseMultiCtx(ctx, b, log)
	return r, err
}

// identityLogs returns uncompacted, compacted and tester-truncated logs of
// a few test chips.
func identityLogs(x *endToEnd) []*failurelog.Log {
	var logs []*failurelog.Log
	for _, s := range x.test[:4] {
		trunc := *s.Log
		trunc.Fails = s.Log.Fails[:(len(s.Log.Fails)+1)/2]
		trunc.Truncated = true
		logs = append(logs, s.Log, x.bundle.Diag.InjectLog(s.Faults, true), &trunc)
	}
	return logs
}

// TestDiagnoseFullMatchesSerialAtAnyLoad: reports, subgraphs and policy
// outcomes equal the serial schedule's (every core counted busy: no
// scoring helper, back-trace after diagnosis) when one caller has the idle
// cores to itself, and when more callers than cores keep them all busy.
func TestDiagnoseFullMatchesSerialAtAnyLoad(t *testing.T) {
	x := getE2E(t)
	logs := identityLogs(x)
	ctx := context.Background()

	want := make([]fullResult, len(logs))
	var leaves []func()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		_, leave := par.Enter(ctx)
		leaves = append(leaves, leave)
	}
	for i, log := range logs {
		r, err := diagnoseBoth(ctx, x.fw, x.bundle, log)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, l := range leaves {
		l()
	}

	for i, log := range logs {
		got, err := diagnoseBoth(ctx, x.fw, x.bundle, log)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("log %d (compacted=%v truncated=%v), idle: result differs from the serial schedule",
				i, log.Compacted, log.Truncated)
		}
	}

	callers := runtime.GOMAXPROCS(0) + 2
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		b := x.bundle.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(logs); i += callers {
				got, err := diagnoseBoth(ctx, x.fw, b, logs[i])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("log %d, saturated: result differs from the serial schedule", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// settleGoroutines waits for the goroutine count to fall back to before
// and fails the test if it does not.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}

// TestBacktraceOverlapCancel: cancelling mid-diagnosis while the back-trace
// runs beside it returns the context error promptly, and the back-trace
// goroutine has exited.
func TestBacktraceOverlapCancel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the back-trace overlaps only with an idle core")
	}
	x := getE2E(t)
	log := x.test[0].Log
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(obs.WithRegistry(context.Background(), reg))
	defer cancel()
	var cancelled time.Time
	var mu sync.Mutex
	timer := time.AfterFunc(2*time.Millisecond, func() {
		mu.Lock()
		cancelled = time.Now()
		mu.Unlock()
		cancel()
	})
	defer timer.Stop()
	_, _, _, err := x.fw.DiagnoseFullCtx(ctx, x.bundle, log)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	lag := returned.Sub(cancelled)
	mu.Unlock()
	if lag > 500*time.Millisecond {
		t.Fatalf("returned %v after cancellation", lag)
	}
	if n := reg.Counter(BacktraceOverlappedCounter).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1: the back-trace did not run beside diagnosis", BacktraceOverlappedCounter, n)
	}
	settleGoroutines(t, before)
}

// TestBacktraceOverlapDiagnosisError: a failing diagnosis cancels the
// back-trace running beside it and waits for it to exit.
func TestBacktraceOverlapDiagnosisError(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the back-trace overlaps only with an idle core")
	}
	x := getE2E(t)
	// A log whose back-trace takes long: the same responses many times.
	src := x.test[0].Log
	long := &failurelog.Log{Design: src.Design}
	for i := 0; i < 20; i++ {
		long.Fails = append(long.Fails, src.Fails...)
	}
	t0 := time.Now()
	if _, err := x.bundle.Graph.BacktraceCtx(context.Background(), long, x.bundle.Diag.Result()); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	t0 = time.Now()
	_, _, _, err := x.fw.diagnose(context.Background(), x.bundle, long,
		func(context.Context, *failurelog.Log) (*diagnosis.Report, error) {
			time.Sleep(time.Millisecond) // let the back-trace start
			return nil, boom
		})
	took := time.Since(t0)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the diagnosis error", err)
	}
	if took > full/4 {
		t.Fatalf("failed diagnosis returned after %v; an uncancelled back-trace takes %v", took, full)
	}
	settleGoroutines(t, before)
}
