// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process from a seed, checks every report it produces, and
// prints its metrics as one JSON object on the last line of standard
// output. See README.md for the workloads, the metrics and how to run it.
//
//	perfbench --workload chip-fixture --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload hands back: work attempted and failed (an
// error, a non-200, a wrong or missing report), its metrics, and a digest
// of every final report it checked.
type outcome struct {
	attempted, failed int
	e2e, layers       metrics
	digest            string
}

func newOutcome() *outcome { return &outcome{e2e: metrics{}, layers: metrics{}} }

// endToEnd and perLayer name every metric the workloads BENCHMARK.json
// lists print, with its unit; a test checks them against BENCHMARK.json.
// Every benchmarked workload sets every end-to-end metric. A layer a
// workload does not run through reads 0 in its traced run.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"p75_ms", "ms"}, {"throughput_per_s", "1/s"},
	{"ok_share", "share"}, {"setup_heap_mb", "MB"},
}

var perLayer = []metricDef{
	// Set-up stages, in dataset.Build's order, then sample generation and
	// training.
	{"gen.s", "s"}, {"partition.s", "s"}, {"atpg.s", "s"}, {"atpg.patterns", "count"},
	{"scan.s", "s"}, {"sim.s", "s"}, {"hgraph.build_s", "s"}, {"hier.setup_s", "s"},
	{"dataset.build_s", "s"}, {"dataset.samples_s", "s"}, {"dataset.accept_share", "share"},
	{"core.train_s", "s"},
	// Per diagnosed chip.
	{"diagnosis.ms", "ms"}, {"diagnosis.extract_ms", "ms"}, {"diagnosis.score_ms", "ms"},
	{"diagnosis.refine_ms", "ms"}, {"diagnosis.candidates", "count"},
	{"diagnosis.useful_share", "share"}, {"diagnosis.alloc_mb", "MB"},
	{"backtrace.ms", "ms"}, {"backtrace.nodes", "count"},
	{"policy.ms", "ms"}, {"gnn.forward_ms", "ms"}, {"policy.pruned_share", "share"},
	// Serving.
	{"serve.queue_wait_ms", "ms"}, {"serve.handle_ms", "ms"}, {"serve.http_ms", "ms"},
	{"serve.shed", "count"}, {"serve.err500", "count"}, {"serve.wrong", "count"},
	{"serve.gen_late_ms", "ms"},
	// Volume campaigns.
	{"volume.read_ms", "ms"}, {"volume.diagnose_ms", "ms"}, {"volume.seal_ms", "ms"},
	{"volume.aggregate_ms", "ms"}, {"volume.busy_share", "share"},
	// Report quality over the run's distinct chips, and process memory.
	{"quality.accuracy_pct", "%"}, {"quality.resolution_mean", "count"},
	{"process.peak_rss_mb", "MB"},
	// The traced run itself.
	{"run.items", "count"}, {"traced.p50_ms", "ms"}, {"trace.overhead_ms", "ms"},
	{"trace.layer_share", "share"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload to its run. benchmarked marks those
// BENCHMARK.json lists; the others are run by hand (README.md says why).
var workloads = map[string]struct {
	run         func(runConfig) (*outcome, error)
	benchmarked bool
}{
	"chip-fixture": {runChipFixture, true},
	"campaign-edt": {runCampaignEDT, true},
	"serve-open":   {runServeOpen, false},
	"paper-aes":    {runPaperAES, false},
}

// complete checks a benchmarked workload's metrics against the tables:
// an untraced run must have set every end-to-end metric, and a traced run
// gets 0 for each layer it does not pass through. A name or unit the
// tables do not list is an error.
func complete(out *outcome, traced bool) error {
	got, want := out.e2e, endToEnd
	if traced {
		got, want = out.layers, perLayer
	}
	units := map[string]string{}
	for _, d := range want {
		units[d.name] = d.unit
		if _, ok := got[d.name]; !ok {
			if !traced {
				return fmt.Errorf("metric %s not measured", d.name)
			}
			got.set(d.name, d.unit, 0)
		}
	}
	for name, m := range got {
		if units[name] != m.Unit {
			return fmt.Errorf("metric %s [%s] is not listed with that unit", name, m.Unit)
		}
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "how long the timed part of the run lasts")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	meta := runMeta(*workload, rc)
	total0, steal0 := cpuTicks()

	out, err := w.run(rc)
	if err == nil {
		out.layers.set("process.peak_rss_mb", "MB", peakRSSMB())
		if w.benchmarked {
			err = complete(out, rc.trace)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	meta["digest"] = out.digest
	meta["steal_share"] = stealShare(total0, steal0)
	line, _ := json.Marshal(meta)
	fmt.Println(string(line))

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if rc.trace {
		res.Metrics = out.layers
	}
	line, err = json.Marshal(res)
	if err != nil {
		// A NaN or Inf metric: a workload forgot to guard an empty sample.
		fmt.Fprintf(os.Stderr, "perfbench: %s: encode result: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
