// Command m3dvolume runs a volume-diagnosis campaign: it diagnoses a
// directory (or manifest) of failure logs — in-process or against a remote
// m3dserve fleet — and aggregates the results into a campaign report with
// per-tier and per-cell suspect histograms, an MIV-vs-gate breakdown, a
// systematic-defect detector, and a PFA cost curve.
//
// Campaigns are crash-safe: every per-log result is sealed as it
// completes, and rerunning the same command resumes, skipping sealed work
// and producing a bitwise-identical report at any -workers count.
//
// Usage:
//
//	m3dvolume -logs ./data/aes -campaign ./campaign -design aes
//	m3dvolume -manifest logs.txt -campaign ./campaign -load-model aes.fw
//	m3dvolume -logs ./data/aes -campaign ./campaign -remote http://127.0.0.1:8080
//	m3dvolume -logs ./data/aes -campaign ./campaign -remote http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/hier"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/version"
	"repro/internal/volume"
)

func main() {
	logsDir := flag.String("logs", "", "directory of *.log failure logs to diagnose")
	manifest := flag.String("manifest", "", "file listing log paths (one per line) instead of -logs")
	campaign := flag.String("campaign", "campaign", "campaign working directory (sealed results, checkpoint, report)")
	design := flag.String("design", "aes", "benchmark: aes, tate, netcard, leon3mp")
	config := flag.String("config", "syn1", "configuration the logs were generated from")
	scale := flag.Float64("scale", 1.0, "design size multiplier")
	seed := flag.Int64("seed", 1, "global seed (must match the logs' generation run)")
	trainSamples := flag.Int("train-samples", 200, "training set size when no -load-model is given")
	loadModel := flag.String("load-model", "", "load a framework instead of training")
	remote := flag.String("remote", "", "diagnose remotely: one m3dserve/m3dfleet base URL, or a comma-separated shard list (in-process fleet coordinator with failover)")
	workers := flag.Int("workers", 0, "campaign workers (0 = all cores); the report is identical for any value")
	timeout := flag.Duration("timeout", 0, "per-log diagnosis deadline (0 = none); expiry quarantines the log")
	topK := flag.Int("top", 16, "candidates retained per die")
	alpha := flag.Float64("alpha", 1e-4, "systematic-detector family-wise false-positive budget")
	multi := flag.Bool("multi", false, "use the multi-fault diagnosis path")
	hierMode := flag.Bool("hier", false, "force hierarchical partitioned diagnosis (auto-selected anyway at 50K+ gates); the report is bitwise-identical to monolithic")
	hierRegions := flag.Int("hier-regions", 0, "region count for hierarchical diagnosis (0 = one region per ~24K gates)")
	fastATPG := flag.Bool("fast-atpg", false, "short collapsed-list ATPG without top-up, for paper-scale smoke runs")
	adjCache := flag.Int("adj-cache", 0, "cap the normalized-adjacency cache at N operators (0 = auto: 256 for paper-scale designs, pinned per subgraph otherwise)")
	maxLogBytes := flag.Int64("max-log-bytes", 0, "per-file failure-log read cap in bytes (0 = the 64 MiB default)")
	metrics := flag.Bool("metrics", false, "print campaign metrics to stderr on exit")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		version.Print("m3dvolume")
		return
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		defer obs.Dump(os.Stderr, reg)
	}

	// Ctrl-C cancels the campaign; sealed results survive, and rerunning
	// the same command resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var inputs []string
	var err error
	switch {
	case *logsDir != "" && *manifest != "":
		fatal("-logs and -manifest are mutually exclusive")
	case *logsDir != "":
		inputs, err = volume.DiscoverLogs(*logsDir)
	case *manifest != "":
		inputs, err = volume.ReadManifest(*manifest)
	default:
		fatal("one of -logs or -manifest is required")
	}
	if err != nil {
		fatal("%v", err)
	}

	p, ok := gen.ProfileByName(*design)
	if !ok {
		fatal("unknown design %q", *design)
	}
	if *scale != 1.0 {
		p = p.Scaled(*scale)
	}
	// Bound the adjacency-operator memoization on paper-scale campaigns: a
	// stream of mostly-unique 100K+-node subgraphs would otherwise pin an
	// operator on every one for its lifetime.
	if *adjCache > 0 {
		gnn.LimitAdjCache(*adjCache)
	} else if p.TargetGates >= gen.LargeGateThreshold {
		gnn.LimitAdjCache(256)
	}

	bopt := dataset.BuildOptions{Seed: *seed, Workers: *workers}
	if *fastATPG {
		bopt.ATPG = atpg.Quick()
	}
	fmt.Printf("building %s/%s ...\n", *design, *config)
	b, err := dataset.Build(p, dataset.ConfigName(*config), bopt)
	if err != nil {
		fatal("build: %v", err)
	}

	nWorkers := par.Workers(*workers)
	// The campaign already fans out across logs, so when it runs more than
	// one worker the hierarchical engine walks its regions serially — the
	// report is identical either way and the cores are not oversubscribed.
	// Candidate scoring needs no such setting: it adds helpers only while
	// a core is idle, so a campaign with a worker per core scores serially.
	if *hierMode || p.TargetGates >= gen.LargeGateThreshold {
		innerWorkers := 1
		if nWorkers == 1 {
			innerWorkers = 0
		}
		b.EnableHier(hier.Options{Regions: *hierRegions, Workers: innerWorkers, Obs: reg})
	}
	var diagnosers []volume.Diagnoser
	if *remote != "" {
		endpoints := splitEndpoints(*remote)
		switch {
		case len(endpoints) == 0:
			// Fail fast: a -remote that parses to nothing would otherwise
			// silently fall back to local diagnosis or hang waiting.
			fatal("-remote %q lists no endpoints", *remote)
		case len(endpoints) == 1:
			client := &serve.Client{Base: endpoints[0], Seed: *seed}
			defer client.Close()
			waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
			err := client.WaitReady(waitCtx)
			cancel()
			if err != nil {
				fatal("remote endpoint %s is not ready (is m3dserve/m3dfleet up and loaded?): %v", endpoints[0], err)
			}
			fmt.Printf("diagnosing remotely against %s with %d workers\n", endpoints[0], nWorkers)
			diagnosers = volume.NewRemoteDiagnosers(client, *timeout, nWorkers, *multi)
		default:
			co, err := fleet.New(fleet.Config{
				Shards:  endpoints,
				Seed:    *seed,
				Metrics: reg,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "m3dvolume: "+format+"\n", args...)
				},
			})
			if err != nil {
				fatal("%v", err)
			}
			defer co.Close()
			// Fail fast: at least one shard must answer /readyz before the
			// campaign starts; after that, the prober and the coordinator's
			// failover ride out individual shard outages.
			ready, err := waitFleetReady(ctx, co, 30*time.Second)
			if err != nil {
				fatal("no ready shard among %d endpoints (%s): %v", len(endpoints), *remote, err)
			}
			co.StartProber(ctx)
			fmt.Printf("diagnosing against a %d-shard fleet (%d ready) with %d workers\n",
				len(endpoints), ready, nWorkers)
			diagnosers = volume.NewFleetDiagnosers(co, *timeout, nWorkers, *multi)
		}
	} else {
		fw, err := loadOrTrain(b, *loadModel, *trainSamples, *seed, *workers, reg)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("diagnosing in-process with %d workers\n", nWorkers)
		diagnosers, err = volume.NewLocalDiagnosers(fw, b, nWorkers, *multi)
		if err != nil {
			fatal("%v", err)
		}
	}

	rep, stats, err := volume.Run(ctx, volume.Config{
		Inputs:      inputs,
		Dir:         *campaign,
		Diagnosers:  diagnosers,
		Netlist:     b.Netlist,
		Design:      b.Name,
		TopK:        *topK,
		LogTimeout:  *timeout,
		MaxLogBytes: *maxLogBytes,
		Alpha:       *alpha,
		Obs:         reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "m3dvolume: "+format+"\n", args...)
		},
	})
	if stats != nil {
		fmt.Printf("processed %d logs (%d resumed) in %v\n",
			stats.Processed, stats.Resumed, stats.Elapsed.Round(time.Millisecond))
	}
	if err != nil {
		fatal("%v", err)
	}

	jsonPath := filepath.Join(*campaign, "report.json")
	err = artifact.WriteAtomic(jsonPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	if err != nil {
		fatal("write report: %v", err)
	}
	txtPath := filepath.Join(*campaign, "report.txt")
	err = artifact.WriteAtomic(txtPath, func(w io.Writer) error { return rep.WriteText(w) })
	if err != nil {
		fatal("write report: %v", err)
	}

	rep.WriteText(os.Stdout)
	fmt.Printf("report: %s, %s\n", jsonPath, txtPath)
}

// loadOrTrain produces the diagnosis framework for in-process campaigns:
// either a saved model (sealed or legacy plain) or a fresh training run.
func loadOrTrain(b *dataset.Bundle, loadModel string, trainSamples int, seed int64, workers int, reg *obs.Registry) (*core.Framework, error) {
	if loadModel != "" {
		payload, _, err := artifact.ReadMaybeSealed(loadModel)
		if err != nil {
			return nil, fmt.Errorf("load model: %w", err)
		}
		fw, err := core.Load(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("load model: %w", err)
		}
		fmt.Printf("loaded framework from %s (T_P=%.3f)\n", loadModel, fw.TP)
		return fw, nil
	}
	fmt.Printf("training on %d samples ...\n", trainSamples)
	train := b.Generate(dataset.SampleOptions{
		Count: trainSamples, Seed: seed + 2, MIVFraction: 0.2, Workers: workers, Obs: reg,
	})
	fw, err := core.Train(train, core.TrainOptions{Seed: seed + 3, Workers: workers, Obs: reg})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	fmt.Printf("trained (T_P=%.3f)\n", fw.TP)
	return fw, nil
}

// splitEndpoints parses the -remote value: comma-separated base URLs,
// blanks dropped.
func splitEndpoints(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// waitFleetReady probes the fleet until at least one shard is ready or the
// wait budget runs out, returning the ready count.
func waitFleetReady(ctx context.Context, co *fleet.Coordinator, wait time.Duration) (int, error) {
	wctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	for {
		if n := co.ProbeAll(wctx); n > 0 {
			return n, nil
		}
		select {
		case <-wctx.Done():
			var firstErr string
			for _, st := range co.Status() {
				if st.LastErr != "" {
					firstErr = st.Name + ": " + st.LastErr
					break
				}
			}
			if firstErr == "" {
				firstErr = "no shard answered /readyz"
			}
			return 0, fmt.Errorf("%s (%w)", firstErr, wctx.Err())
		case <-time.After(500 * time.Millisecond):
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "m3dvolume: "+format+"\n", args...)
	os.Exit(1)
}
