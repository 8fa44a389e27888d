package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/gen"
	"repro/internal/hgraph"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/scan"
)

// designSeed fixes the chip design, its pattern set and the trained model.
// A workload's --seed varies the chips under test, never the design, so
// set-up does the same work on every seed.
const designSeed = 1

// setupReps is how many times a run sets up its fixture; setup_s is the
// median.
const setupReps = 2

// design is one workload's chip design and how its framework is trained.
type design struct {
	profile gen.Profile
	atpg    atpg.Options
	// train is the number of (uncompacted, single-fault) training samples.
	train int
}

func fixtureDesign(name string) design {
	p, ok := gen.ProfileByName(name)
	if !ok {
		panic("unknown profile " + name)
	}
	return design{profile: p, train: 100}
}

// fixture is what set-up produces: the design bundle and the trained
// framework, plus a digest of the model bytes so repeated set-ups can be
// checked for identity.
type fixture struct {
	b        *dataset.Bundle
	fw       *core.Framework
	modelSum string
}

// buildFixture is one set-up: dataset.Build, training-sample generation
// and training. reg (nil in untraced runs) receives the generation
// counters.
func buildFixture(d design, reg *obs.Registry) (*fixture, stageTimes, error) {
	var st stageTimes
	t0 := time.Now()
	b, err := dataset.Build(d.profile, dataset.Syn1, dataset.BuildOptions{Seed: designSeed, ATPG: d.atpg})
	if err != nil {
		return nil, st, fmt.Errorf("build: %w", err)
	}
	st.build = time.Since(t0)
	t0 = time.Now()
	samples := b.Generate(dataset.SampleOptions{
		Count: d.train, Seed: designSeed + 2, MIVFraction: 0.2, Obs: reg,
	})
	st.samples = time.Since(t0)
	if len(samples) != d.train {
		return nil, st, fmt.Errorf("generated %d of %d training samples", len(samples), d.train)
	}
	t0 = time.Now()
	fw, err := core.Train(samples, core.TrainOptions{Seed: designSeed + 3})
	if err != nil {
		return nil, st, fmt.Errorf("train: %w", err)
	}
	st.train = time.Since(t0)
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		return nil, st, fmt.Errorf("save model: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return &fixture{b: b, fw: fw, modelSum: hex.EncodeToString(sum[:8])}, st, nil
}

type stageTimes struct{ build, samples, train time.Duration }

func (s stageTimes) total() time.Duration { return s.build + s.samples + s.train }

// setUp runs set-up reps times and returns the last fixture with the
// median set-up time in seconds. Every rep must train the same model
// bytes; a difference means set-up is not deterministic.
func setUp(d design, reps int) (*fixture, float64, error) {
	var fx *fixture
	var sum string
	var secs []float64
	for i := 0; i < reps; i++ {
		// The previous set-up's fixture is garbage now; collect it so the
		// set-ups do not overlap in memory.
		fx = nil
		runtime.GC()
		f, st, err := buildFixture(d, nil)
		if err != nil {
			return nil, 0, err
		}
		if i > 0 && f.modelSum != sum {
			return nil, 0, fmt.Errorf("set-up %d trained model %s, set-up 1 trained %s", i+1, f.modelSum, sum)
		}
		fx, sum = f, f.modelSum
		secs = append(secs, st.total().Seconds())
	}
	return fx, median(secs), nil
}

// setUpFor is a run's set-up: reps timed set-ups reporting setup_s, or
// the traced set-up reporting the build stages.
func setUpFor(rc runConfig, d design, reps int, out *outcome) (*fixture, error) {
	if rc.trace {
		return tracedSetUp(d, out.layers)
	}
	fx, secs, err := setUp(d, reps)
	out.e2e.set("setup_s", "s", secs)
	out.e2e.set("setup_heap_mb", "MB", liveHeapMB())
	return fx, err
}

// liveHeapMB collects garbage and returns the heap still in use: after
// set-up, the memory the loaded design and model hold. Unlike the peak
// RSS, which moves by a third between runs of the same work with the
// collector's timing, it repeats.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// tracedSetUp is the traced run's set-up. It first calls, one by one and
// in dataset.Build's order, the public functions Build calls, timing each
// stage, and then builds the real fixture through dataset.Build. The
// staged build must match the bundle's gate and pattern counts.
func tracedSetUp(d design, layers metrics) (*fixture, error) {
	t0 := time.Now()
	var base *netlist.Netlist
	if d.profile.TargetGates >= gen.LargeGateThreshold {
		base = gen.GenerateLarge(d.profile, designSeed, 0)
	} else {
		base = gen.Generate(d.profile, designSeed)
	}
	layers.set("gen.s", "s", since(t0))
	t0 = time.Now()
	m3d, err := partition.Partition(base, partition.FM, partition.Options{Seed: designSeed + 101})
	if err != nil {
		return nil, fmt.Errorf("staged partition: %w", err)
	}
	layers.set("partition.s", "s", since(t0))
	aopt := d.atpg
	if aopt.Seed == 0 {
		aopt.Seed = designSeed + 7
	}
	t0 = time.Now()
	ares, err := atpg.Generate(m3d, aopt)
	if err != nil {
		return nil, fmt.Errorf("staged atpg: %w", err)
	}
	layers.set("atpg.s", "s", since(t0))
	layers.set("atpg.patterns", "count", float64(ares.Patterns.N))
	t0 = time.Now()
	arch, err := scan.Build(m3d, d.profile.ScanChains, d.profile.CompactionRatio)
	if err != nil {
		return nil, fmt.Errorf("staged scan: %w", err)
	}
	layers.set("scan.s", "s", since(t0))
	t0 = time.Now()
	eng, err := diagnosis.NewEngine(arch, ares.Patterns, diagnosis.Options{})
	if err != nil {
		return nil, fmt.Errorf("staged engine: %w", err)
	}
	layers.set("sim.s", "s", since(t0))
	t0 = time.Now()
	graph := hgraph.Build(arch)
	layers.set("hgraph.build_s", "s", since(t0))
	t0 = time.Now()
	if _, err := hier.New(eng, graph, hier.Options{}); err != nil {
		return nil, fmt.Errorf("staged hier: %w", err)
	}
	layers.set("hier.setup_s", "s", since(t0))

	reg := obs.NewRegistry()
	fx, st, err := buildFixture(d, reg)
	if err != nil {
		return nil, err
	}
	if got, want := len(fx.b.Netlist.Gates), len(m3d.Gates); got != want {
		return nil, fmt.Errorf("staged build has %d gates, dataset.Build %d", want, got)
	}
	if got, want := fx.b.ATPG.Patterns.N, ares.Patterns.N; got != want {
		return nil, fmt.Errorf("staged build has %d patterns, dataset.Build %d", want, got)
	}
	layers.set("dataset.build_s", "s", st.build.Seconds())
	layers.set("dataset.samples_s", "s", st.samples.Seconds())
	layers.set("core.train_s", "s", st.train.Seconds())
	attempts := reg.Counter("m3d_dataset_attempts_total").Value()
	accepted := reg.Counter("m3d_dataset_accepted_total").Value()
	layers.set("dataset.accept_share", "share", ratio(float64(accepted), float64(attempts)))
	return fx, nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
