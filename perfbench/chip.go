package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/hgraph"
	"repro/internal/obs"
	"repro/internal/policy"
)

// chipPool is how many distinct chips chip-fixture diagnoses at least: the
// quality metrics and the digest cover exactly these. At HEAD they take
// about 14 s, and 50 samples leave ten beyond the 75th percentile.
const chipPool = 50

func runChipFixture(rc runConfig) (*outcome, error) {
	return runChips(rc, fixtureDesign("aes"), chipPool, setupReps)
}

// runPaperAES diagnoses chips of the 122K-gate aes-paper design through
// the auto-selected hierarchical engine. It is too slow for the repeated
// runs BENCHMARK.json asks for, so it is run by hand (see README.md).
func runPaperAES(rc runConfig) (*outcome, error) {
	p, ok := gen.ProfileByName("aes-paper")
	if !ok {
		return nil, fmt.Errorf("no aes-paper profile")
	}
	// As the command-line tools do for paper-scale designs: bound the
	// memoized adjacency operators of the many distinct large subgraphs.
	gnn.LimitAdjCache(256)
	return runChips(rc, design{profile: p, atpg: atpg.Quick(), train: 6}, 4, 1)
}

// runChips is the closed-loop single-caller workload: set up, draw pool
// chips from the seed, then diagnose them one after another — wrapping
// around the pool until rc.seconds have passed — through
// core.Framework.DiagnoseCtx (untraced) or through the three layers it
// calls, each timed (traced).
func runChips(rc runConfig, d design, pool, reps int) (*outcome, error) {
	out := newOutcome()
	fx, err := setUpFor(rc, d, reps, out)
	if err != nil {
		return nil, err
	}
	chips := fx.b.Generate(dataset.SampleOptions{Count: pool, Seed: rc.seed, MIVFraction: 0.2})
	if len(chips) != pool {
		return nil, fmt.Errorf("generated %d of %d chips", len(chips), pool)
	}
	var lt *layerTimes
	if rc.trace {
		lt = newLayerTimes(fx)
	}
	diagnose := func(s dataset.Sample) (string, *policy.Outcome, error) {
		if lt != nil {
			return lt.diagnose(s.Log)
		}
		rep, o, err := fx.fw.DiagnoseCtx(context.Background(), fx.b, s.Log)
		if err != nil {
			return "", nil, err
		}
		return canonical(o, rep.Resolution()), o, nil
	}
	// Warm-up: lazy state (scratch buffers, page faults) fills before
	// timing starts.
	if _, _, err := fx.fw.DiagnoseCtx(context.Background(), fx.b, chips[0].Log); err != nil {
		return nil, fmt.Errorf("warm-up chip: %w", err)
	}

	first := make([]string, pool)
	var lat []float64
	var hits, cands int
	start := time.Now()
	deadline := start.Add(rc.seconds)
	for i := 0; i < pool || time.Now().Before(deadline); i++ {
		c := chips[i%pool]
		t0 := time.Now()
		key, o, err := diagnose(c)
		lat = append(lat, ms(time.Since(t0)))
		out.attempted++
		switch {
		case err != nil:
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: chip %d: %v\n", i%pool, err)
		case i < pool:
			first[i] = key
			cands += o.Report.Resolution()
			if o.Report.FirstHit(fx.b.Netlist, c.Faults) > 0 {
				hits++
			}
		case key != first[i%pool]:
			// The same chip diagnosed twice must give the same report.
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: chip %d: report differs from its first diagnosis\n", i%pool)
		}
	}
	elapsed := time.Since(start)
	out.digest = digest(first)

	if rc.trace {
		lt.report(out.layers, len(lat))
		out.layers.set("trace.layer_share", "share", ms(lt.diag+lt.backtrace+lt.policy)/(mean(lat)*float64(len(lat))))
		out.layers.set("traced.p50_ms", "ms", median(append([]float64(nil), lat...)))
		n, bad := lt.checkUntraced(out.layers, chips, first)
		out.attempted, out.failed = out.attempted+n, out.failed+bad
		n, bad = servePass(rc, fx, chips, first, out.layers)
		out.attempted, out.failed = out.attempted+n, out.failed+bad
	}
	out.e2e.set("p50_ms", "ms", median(append([]float64(nil), lat...)))
	out.e2e.set("p75_ms", "ms", percentile(lat, 75))
	out.e2e.set("throughput_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	out.layers.set("quality.accuracy_pct", "%", 100*float64(hits)/float64(pool))
	out.layers.set("quality.resolution_mean", "count", float64(cands)/float64(pool))
	out.e2e.set("ok_share", "share", float64(out.attempted-out.failed)/float64(out.attempted))
	out.layers.set("run.items", "count", float64(len(lat)))
	return out, nil
}

// canonical renders a final (post-policy) report and the ATPG report's
// resolution in one exact form, so a report computed in process and one
// decoded from the server's JSON can be compared as strings.
func canonical(o *policy.Outcome, atpgResolution int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tier=%d conf=%v pruned=%t mivs=%v atpg=%d:", o.PredictedTier, o.Confidence, o.Pruned, o.FaultyMIVs, atpgResolution)
	for _, c := range o.Report.Candidates {
		fmt.Fprintf(&b, " %s/%d/%d/%d/%v", c.Fault, c.TFSF, c.TFSP, c.TPSF, c.Score)
	}
	return b.String()
}

// digest hashes a run's checked reports in order.
func digest(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// layerTimes times the three layers one diagnosis is made of, around
// the public call into each, and collects the spans and counters the
// program records inside them.
type layerTimes struct {
	fx     *fixture
	reg    *obs.Registry
	tracer *obs.Tracer

	diag, backtrace, policy  time.Duration
	allocBytes               uint64
	nodes, atpgCands, pruned int
}

func newLayerTimes(fx *fixture) *layerTimes {
	reg := obs.NewRegistry()
	return &layerTimes{fx: fx, reg: reg, tracer: obs.NewTracer(reg, 1)}
}

// diagnose is core.Framework.DiagnoseFullCtx taken apart: ATPG diagnosis,
// back-trace and policy, each through the same public call and each timed.
// Its reports must equal the untraced path's (checkUntraced).
func (lt *layerTimes) diagnose(log *failurelog.Log) (string, *policy.Outcome, error) {
	b, fw := lt.fx.b, lt.fx.fw
	ctx, trace := lt.tracer.StartTrace(context.Background(), "chip")
	defer trace.End()
	he, err := b.HierEngine()
	if err != nil {
		return "", nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var rep *diagnosis.Report
	if he != nil {
		rep, err = he.DiagnoseCtx(ctx, log)
	} else {
		rep, err = b.Diag.DiagnoseCtx(ctx, log)
	}
	lt.diag += time.Since(t0)
	runtime.ReadMemStats(&ms1)
	lt.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		return "", nil, err
	}
	t0 = time.Now()
	var sg *hgraph.Subgraph
	if he != nil {
		sg, err = he.BacktraceCtx(ctx, log)
	} else {
		sg, err = b.Graph.BacktraceCtx(ctx, log, b.Diag.Result())
	}
	lt.backtrace += time.Since(t0)
	if err != nil {
		return "", nil, err
	}
	t0 = time.Now()
	o := fw.PolicyFor(b).ApplyCtx(ctx, rep, sg)
	lt.policy += time.Since(t0)
	lt.nodes += sg.NumNodes()
	lt.atpgCands += rep.Resolution()
	if o.Pruned {
		lt.pruned++
	}
	return canonical(o, rep.Resolution()), o, nil
}

// report writes the per-chip layer metrics over n diagnosed chips.
func (lt *layerTimes) report(m metrics, n int) {
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	m.set("diagnosis.ms", "ms", per(lt.diag))
	m.set("backtrace.ms", "ms", per(lt.backtrace))
	m.set("policy.ms", "ms", per(lt.policy))
	m.set("diagnosis.alloc_mb", "MB", float64(lt.allocBytes)/float64(n)/(1<<20))
	m.set("backtrace.nodes", "count", float64(lt.nodes)/float64(n))
	m.set("policy.pruned_share", "share", float64(lt.pruned)/float64(n))
	spanStats(lt.reg, m, n)
	scored := lt.reg.Counter("m3d_diag_candidates_scored_total").Value()
	m.set("diagnosis.candidates", "count", float64(scored)/float64(n))
	m.set("diagnosis.useful_share", "share", ratio(float64(lt.atpgCands), float64(scored)))
}

// checkUntraced diagnoses the first few chips again, traced and through
// the untraced core.Framework.DiagnoseCtx: reports must not depend on
// tracing, and the time difference is the tracing overhead. It returns
// the number of chips checked and of those that failed.
func (lt *layerTimes) checkUntraced(m metrics, chips []dataset.Sample, traced []string) (checked, failed int) {
	var tracedT, plainT time.Duration
	for i := 0; i < 8 && i < len(chips); i++ {
		checked++
		t0 := time.Now()
		_, _, err1 := lt.diagnose(chips[i].Log)
		tracedT += time.Since(t0)
		t0 = time.Now()
		rep, o, err2 := lt.fx.fw.DiagnoseCtx(context.Background(), lt.fx.b, chips[i].Log)
		plainT += time.Since(t0)
		if err := errors.Join(err1, err2); err != nil || canonical(o, rep.Resolution()) != traced[i] {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: chip %d: traced and untraced reports differ (%v)\n", i, err)
		}
	}
	m.set("trace.overhead_ms", "ms", ms(tracedT-plainT)/float64(checked))
	return checked, failed
}
