package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/failurelog"
	"repro/internal/obs"
	"repro/internal/volume"
)

// campaignLogs is how many failure logs one campaign diagnoses: at HEAD
// about 35 s of work, and ten samples beyond the 75th percentile.
const campaignLogs = 40

// campaignWorkers is the number of local diagnosers (forked engines).
const campaignWorkers = 2

// workDir is where runs write their scratch files, relative to the
// directory the benchmark runs from. Each run removes its own directory
// when it ends.
const workDir = ".bench_build/perfbench-work"

// runCampaignEDT writes seeded EDT-compacted multi-fault logs of the
// netcard fixture to disk and diagnoses them with volume.Run over two
// local diagnosers, sealing each result. A campaign is repeated over the
// same logs, in a fresh directory, while another fits in rc.seconds;
// every repeat must seal the same results.
func runCampaignEDT(rc runConfig) (*outcome, error) {
	d := fixtureDesign("netcard")
	out := newOutcome()
	fx, err := setUpFor(rc, d, setupReps, out)
	if err != nil {
		return nil, err
	}
	chips := fx.b.Generate(dataset.SampleOptions{Count: campaignLogs, Seed: rc.seed, Compacted: true, MultiFault: true})
	if len(chips) != campaignLogs {
		return nil, fmt.Errorf("generated %d of %d logs", len(chips), campaignLogs)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := os.Mkdir(filepath.Join(dir, "logs"), 0o755); err != nil {
		return nil, err
	}
	inputs := make([]string, len(chips))
	for i, c := range chips {
		inputs[i] = filepath.Join(dir, "logs", fmt.Sprintf("chip-%03d.log", i))
		if err := failurelog.WriteFile(inputs[i], c.Log); err != nil {
			return nil, err
		}
	}

	// The tracer gives each log's latency (its volume.log trace); it has no
	// registry unless the run is traced.
	var reg *obs.Registry
	var aggTracer *obs.Tracer
	if rc.trace {
		reg = obs.NewRegistry()
		aggTracer = obs.NewTracer(reg, 1)
	}
	var lat []float64
	var firstDigest string
	var first []*volume.Result
	var elapsed, last time.Duration
	alloc0 := totalAlloc()
	// Campaigns are repeated only while a whole one still fits in the run.
	for rep := 0; rep == 0 || elapsed+last <= rc.seconds; rep++ {
		tracer := obs.NewTracer(reg, len(inputs))
		diagnosers, err := volume.NewLocalDiagnosers(fx.fw, fx.b, campaignWorkers, true)
		if err != nil {
			return nil, err
		}
		cdir := filepath.Join(dir, fmt.Sprintf("campaign-%d", rep))
		// In a traced run the campaign-level aggregate span needs a trace of
		// its own; each log's spans go to the log's trace.
		ctx, ctr := aggTracer.StartTrace(context.Background(), "campaign")
		t0 := time.Now()
		report, _, err := volume.Run(ctx, volume.Config{
			Inputs: inputs, Dir: cdir, Diagnosers: diagnosers,
			Netlist: fx.b.Netlist, Design: fx.b.Name, Tracer: tracer, Obs: reg,
		})
		last = time.Since(t0)
		elapsed += last
		ctr.End()
		out.attempted += len(inputs)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		for _, tr := range tracer.Snapshot() {
			lat = append(lat, tr.DurationMS)
		}
		results := volume.Results(cdir, inputs)
		out.failed += checkCampaign(report, results)
		dg, err := campaignDigest(report, results)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			firstDigest, first = dg, results
		} else if dg != firstDigest {
			out.failed += len(inputs)
			fmt.Fprintf(os.Stderr, "perfbench: campaign %d sealed different results than campaign 0\n", rep)
		}
	}
	out.digest = firstDigest
	allocMB := float64(totalAlloc()-alloc0) / (1 << 20)

	hits, cands := 0, 0
	for i, r := range first {
		if r == nil {
			continue
		}
		cands += len(r.Candidates)
		if campaignHit(fx, r, chips[i]) {
			hits++
		}
	}
	if rc.trace {
		n := len(lat)
		spanStats(reg, out.layers, n)
		coreLayers(reg, out.layers, n)
		// Multi-fault diagnosis records no scored-candidate counter and its
		// sealed results carry no ATPG report size.
		out.layers.set("diagnosis.useful_share", "share", 0)
		out.layers.set("diagnosis.alloc_mb", "MB", allocMB/float64(n))
		out.layers.set("volume.read_ms", "ms", spanMS(reg, "volume.read")/float64(n))
		out.layers.set("volume.diagnose_ms", "ms", spanMS(reg, "volume.diagnose")/float64(n))
		out.layers.set("volume.seal_ms", "ms", spanMS(reg, "volume.seal")/float64(n))
		out.layers.set("volume.aggregate_ms", "ms", spanMS(reg, "volume.aggregate")*float64(len(inputs))/float64(n))
		out.layers.set("volume.busy_share", "share",
			spanMS(reg, "volume.diagnose")/(ms(elapsed)*campaignWorkers))
		pruned, nodes := 0, 0
		for i, r := range first {
			if r != nil && r.Pruned {
				pruned++
			}
			sg, err := fx.b.Graph.BacktraceCtx(context.Background(), chips[i].Log, fx.b.Diag.Result())
			if err != nil {
				return nil, err
			}
			nodes += sg.NumNodes()
		}
		out.layers.set("policy.pruned_share", "share", float64(pruned)/float64(len(first)))
		out.layers.set("backtrace.nodes", "count", float64(nodes)/float64(len(first)))
		out.layers.set("traced.p50_ms", "ms", median(append([]float64(nil), lat...)))
		out.layers.set("run.items", "count", float64(n))
	}
	out.e2e.set("p50_ms", "ms", median(append([]float64(nil), lat...)))
	out.e2e.set("p75_ms", "ms", percentile(lat, 75))
	out.e2e.set("throughput_per_s", "1/s", float64(out.attempted)/elapsed.Seconds())
	out.layers.set("quality.accuracy_pct", "%", 100*float64(hits)/float64(len(first)))
	out.layers.set("quality.resolution_mean", "count", float64(cands)/float64(len(first)))
	out.e2e.set("ok_share", "share", float64(out.attempted-out.failed)/float64(out.attempted))
	return out, nil
}

// checkCampaign counts the logs of one campaign that did not end with a
// sealed, ok result, and any disagreement between the report's counts and
// the sealed results.
func checkCampaign(rep *volume.Report, results []*volume.Result) int {
	bad := 0
	for _, r := range results {
		if r == nil || r.Status != volume.StatusOK {
			bad++
		}
	}
	if rep.Logs != len(results) || rep.Diagnosed != len(results)-bad {
		fmt.Fprintf(os.Stderr, "perfbench: campaign report counts %d logs, %d diagnosed; %d sealed, %d ok\n",
			rep.Logs, rep.Diagnosed, len(results), len(results)-bad)
		return len(results)
	}
	return bad
}

// campaignDigest hashes the campaign report and every sealed result.
func campaignDigest(rep *volume.Report, results []*volume.Result) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	keys := []string{string(b)}
	for _, r := range results {
		if b, err = json.Marshal(r); err != nil {
			return "", err
		}
		keys = append(keys, string(b))
	}
	return digest(keys), nil
}

// campaignHit reports whether a sealed result names one of the chip's
// injected faults (same site gate and polarity).
func campaignHit(fx *fixture, r *volume.Result, chip dataset.Sample) bool {
	for _, c := range r.Candidates {
		for _, f := range chip.Faults {
			if c.Gate == f.SiteGate(fx.b.Netlist) && c.Pol == int(f.Pol) {
				return true
			}
		}
	}
	return false
}
