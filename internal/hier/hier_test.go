package hier

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/hgraph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/scan"
)

// fixture: a small partitioned design with a monolithic diagnosis engine,
// its heterogeneous graph, and a set of detectable injected-fault logs —
// the reference the hierarchical engine must reproduce bitwise.
type fixture struct {
	eng   *diagnosis.Engine
	graph *hgraph.Graph
	logs  []*failurelog.Log
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		p, _ := gen.ProfileByName("aes")
		p = p.Scaled(0.1)
		n := gen.Generate(p, 1)
		m3d, err := partition.Partition(n, partition.FM, partition.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ares, err := atpg.Generate(m3d, atpg.Options{Seed: 1, TargetCoverage: 0.97})
		if err != nil {
			t.Fatal(err)
		}
		arch, err := scan.Build(m3d, p.ScanChains, p.CompactionRatio)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := diagnosis.NewEngine(arch, ares.Patterns, diagnosis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := &fixture{eng: eng, graph: hgraph.Build(arch)}
		// Detectable fault logs, both compacted and uncompacted.
		faults := faultsim.AllFaults(m3d)
		rng := rand.New(rand.NewSource(7))
		for _, i := range rng.Perm(len(faults)) {
			if len(f.logs) >= 24 {
				break
			}
			log := eng.InjectLog([]faultsim.Fault{faults[i]}, len(f.logs)%2 == 0)
			if !log.Empty() {
				f.logs = append(f.logs, log)
			}
		}
		if len(f.logs) < 10 {
			t.Fatalf("too few detectable fault logs: %d", len(f.logs))
		}
		// Tester-truncated copies of two compacted and two uncompacted logs.
		for _, log := range f.logs[:4] {
			trunc := *log
			trunc.Fails = log.Fails[:(len(log.Fails)+1)/2]
			trunc.Truncated = true
			f.logs = append(f.logs, &trunc)
		}
		fix = f
	})
	if fix == nil {
		t.Fatal("fixture construction failed")
	}
	return fix
}

func newHier(t *testing.T, fx *fixture, opt Options) *Engine {
	t.Helper()
	e, err := New(fx.eng, fx.graph, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sameSubgraph compares the fields the GNN stack consumes. The adjacency
// cache is deliberately excluded: it is a memoized derivation, not part of
// the backtrace result.
func sameSubgraph(t *testing.T, tag string, want, got *hgraph.Subgraph) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes, got.Nodes) {
		t.Fatalf("%s: Nodes differ: %v vs %v", tag, want.Nodes, got.Nodes)
	}
	if !reflect.DeepEqual(want.Adj, got.Adj) {
		t.Fatalf("%s: Adj differs", tag)
	}
	if !reflect.DeepEqual(want.X, got.X) {
		t.Fatalf("%s: feature matrix differs", tag)
	}
	if !reflect.DeepEqual(want.MIVLocal, got.MIVLocal) || !reflect.DeepEqual(want.MIVGates, got.MIVGates) {
		t.Fatalf("%s: MIV node lists differ", tag)
	}
	if !reflect.DeepEqual(want.TierOf, got.TierOf) {
		t.Fatalf("%s: TierOf differs", tag)
	}
}

// TestHierMatchesMonolithicDiagnosis is the keystone equivalence check:
// for every fixture log, the hierarchical report must be bitwise-identical
// to the monolithic one — same candidates, same scores, same order — for
// several region counts and worker counts.
func TestHierMatchesMonolithicDiagnosis(t *testing.T) {
	fx := getFixture(t)
	ctx := context.Background()
	for _, cfg := range []Options{
		{Regions: 2, Workers: 1},
		{Regions: 4, Workers: 3},
		{Regions: 7, Workers: 8},
	} {
		e := newHier(t, fx, cfg)
		for li, log := range fx.logs {
			want, err := fx.eng.DiagnoseCtx(ctx, log)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.DiagnoseCtx(ctx, log)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("regions=%d workers=%d log %d: hierarchical report differs from monolithic\nmono: %+v\nhier: %+v",
					cfg.Regions, cfg.Workers, li, want, got)
			}
		}
	}
}

// TestHierMatchesMonolithicBacktrace: the extracted GNN subgraph must be
// identical node-for-node and feature-for-feature.
func TestHierMatchesMonolithicBacktrace(t *testing.T) {
	fx := getFixture(t)
	ctx := context.Background()
	for _, cfg := range []Options{
		{Regions: 3, Workers: 1},
		{Regions: 5, Workers: 4},
	} {
		e := newHier(t, fx, cfg)
		for li, log := range fx.logs {
			want, err := fx.graph.BacktraceCtx(ctx, log, fx.eng.Result())
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.BacktraceCtx(ctx, log)
			if err != nil {
				t.Fatal(err)
			}
			sameSubgraph(t, // tag
				t.Name()+"/"+string(rune('a'+li%26)), want, got)
			_ = li
		}
	}
}

// TestHierWorkerInvariance: the same engine must produce identical reports
// at any worker count, and repeated calls on one engine (exercising the
// scratch and fork pools) must not drift.
func TestHierWorkerInvariance(t *testing.T) {
	fx := getFixture(t)
	ctx := context.Background()
	base := newHier(t, fx, Options{Regions: 4, Workers: 1})
	other := newHier(t, fx, Options{Regions: 4, Workers: 6})
	log := fx.logs[0]
	want, err := base.DiagnoseCtx(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := other.DiagnoseCtx(ctx, log)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iteration %d: report differs across worker counts", i)
		}
	}
}

// serialReports diagnoses the logs on the monolithic engine with every
// core counted busy, so scoring runs on the serial schedule.
func serialReports(t *testing.T, eng *diagnosis.Engine, logs []*failurelog.Log) []*diagnosis.Report {
	t.Helper()
	var leaves []func()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		_, leave := par.Enter(context.Background())
		leaves = append(leaves, leave)
	}
	defer func() {
		for _, l := range leaves {
			l()
		}
	}()
	want := make([]*diagnosis.Report, len(logs))
	for i, log := range logs {
		r, err := eng.DiagnoseCtx(context.Background(), log)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	return want
}

// TestHierConcurrentCalls drives one engine from one caller and from more
// callers than cores (the volume-diagnosis usage) under the race
// detector: reports must equal the serial schedule's either way, and
// pooled scratch and forked scoring engines must never be shared between
// in-flight calls.
func TestHierConcurrentCalls(t *testing.T) {
	fx := getFixture(t)
	e := newHier(t, fx, Options{Regions: 4, Workers: 2})
	ctx := context.Background()
	want := serialReports(t, fx.eng, fx.logs)
	for i, log := range fx.logs {
		got, err := e.DiagnoseCtx(ctx, log)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[i], got) {
			t.Fatalf("log %d: idle report differs from the serial schedule", i)
		}
	}
	callers := runtime.GOMAXPROCS(0) + 2
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(fx.logs); i += callers {
				got, err := e.DiagnoseCtx(ctx, fx.logs[i])
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(want[i], got) {
					errc <- errors.New("concurrent report differs from the serial schedule")
					return
				}
				if _, err := e.BacktraceCtx(ctx, fx.logs[i]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestHierCancellation: a cancelled context aborts both stages with the
// context error and no panic.
func TestHierCancellation(t *testing.T) {
	fx := getFixture(t)
	e := newHier(t, fx, Options{Regions: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.DiagnoseCtx(ctx, fx.logs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("DiagnoseCtx: want context.Canceled, got %v", err)
	}
	if _, err := e.BacktraceCtx(ctx, fx.logs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("BacktraceCtx: want context.Canceled, got %v", err)
	}
}

// TestHierStats sanity-checks the partition metadata the CLIs print.
func TestHierStats(t *testing.T) {
	fx := getFixture(t)
	e := newHier(t, fx, Options{Regions: 4})
	st := e.Stats()
	if st.Regions != 4 || len(st.Sizes) != 4 {
		t.Fatalf("stats: %+v", st)
	}
	total := 0
	for _, s := range st.Sizes {
		total += s
	}
	if total != len(fx.graph.Netlist().Gates) {
		t.Fatalf("region sizes sum %d != gates %d", total, len(fx.graph.Netlist().Gates))
	}
	if st.PinCutEdges <= 0 || st.GateCut <= 0 {
		t.Fatalf("expected a non-trivial cut, got %+v", st)
	}
}

// TestHierEmptyLog: degenerate input yields the monolithic empty results.
func TestHierEmptyLog(t *testing.T) {
	fx := getFixture(t)
	e := newHier(t, fx, Options{Regions: 3})
	ctx := context.Background()
	empty := &failurelog.Log{Design: fx.graph.Netlist().Name}
	want, err := fx.eng.DiagnoseCtx(ctx, empty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.DiagnoseCtx(ctx, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("empty-log reports differ: %+v vs %+v", want, got)
	}
	wsg, err := fx.graph.BacktraceCtx(ctx, empty, fx.eng.Result())
	if err != nil {
		t.Fatal(err)
	}
	gsg, err := e.BacktraceCtx(ctx, empty)
	if err != nil {
		t.Fatal(err)
	}
	sameSubgraph(t, "empty", wsg, gsg)
}
