package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{20, 1}, {50, 3}, {75, 4}, {100, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

// The reported tail is the highest percentile that leaves at least ten
// samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct{ n, maxP, want int }{
		{19, 99, 0},    // not even the median: 9 samples above it
		{20, 99, 50},   // 10 above the median
		{39, 99, 74},   // p75 would leave 9
		{40, 99, 75},   // 10 above p75
		{100, 99, 90},  // 10 above p90
		{1000, 90, 90}, // capped
	} {
		if got := highestSupported(c.n, c.maxP); got != c.want {
			t.Errorf("highestSupported(%d, %d) = %d, want %d", c.n, c.maxP, got, c.want)
		}
	}
	for _, c := range []struct{ p, want int }{{50, 20}, {75, 40}, {90, 100}} {
		if got := samplesFor(c.p); got != c.want {
			t.Errorf("samplesFor(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}

// Each benchmarked workload diagnoses at least enough chips for its p75_ms
// to leave ten samples beyond it.
func TestWorkloadsSupportP75(t *testing.T) {
	for _, c := range []struct {
		name    string
		samples int
	}{{"chip-fixture", chipPool}, {"campaign-edt", campaignLogs}} {
		if c.samples < samplesFor(75) {
			t.Errorf("%s: %d samples do not support p75 (need %d)", c.name, c.samples, samplesFor(75))
		}
	}
}

// An open-loop request's latency runs from when it was due, not from when
// the generator got round to sending it.
func TestOpenLoopLatencyFromScheduledSend(t *testing.T) {
	t0 := time.Unix(0, 0)
	q := request{due: t0, sent: t0.Add(50 * time.Millisecond), done: t0.Add(150 * time.Millisecond), ok: true}
	if got := q.latency(); got != 150*time.Millisecond {
		t.Errorf("latency = %v, want 150ms (from the due time)", got)
	}
	if got := q.lateness(); got != 50*time.Millisecond {
		t.Errorf("lateness = %v, want 50ms", got)
	}
	ph := &phase{reqs: []request{q}}
	if got := ph.okLatenciesMS(); len(got) != 1 || got[0] != 150 {
		t.Errorf("okLatenciesMS = %v, want [150]", got)
	}
}

// The generator's lateness is the worst send delay of the run.
func TestGeneratorLateness(t *testing.T) {
	t0 := time.Unix(0, 0)
	var late []float64
	for i, d := range []time.Duration{0, 3 * time.Millisecond, 40 * time.Millisecond, time.Millisecond} {
		due := t0.Add(time.Duration(i) * time.Second)
		late = append(late, ms(request{due: due, sent: due.Add(d)}.lateness()))
	}
	if got := percentile(late, 100); got != 40 {
		t.Errorf("worst lateness = %v ms, want 40", got)
	}
}

// fixedPhase builds a phase of n requests, each answered lat after it was
// due, with the given number of failures; arrivals are 100 ms apart.
func fixedPhase(rate float64, n, failures int, lat time.Duration) *phase {
	t0 := time.Unix(0, 0)
	ph := &phase{rate: rate}
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * 100 * time.Millisecond)
		ph.reqs = append(ph.reqs, request{due: due, sent: due, done: due.Add(lat), ok: i >= failures})
		ph.windowEnd = due
	}
	return ph
}

// A failed request counts as missing the latency limit however fast it
// failed.
func TestFailureMissesLimit(t *testing.T) {
	if !fixedPhase(2, 10, 0, 200*time.Millisecond).meets(90, time.Second) {
		t.Fatal("a phase of fast successes misses the limit")
	}
	// One miss in ten still leaves the 90th percentile within the limit;
	// two do not.
	if !fixedPhase(2, 10, 1, 200*time.Millisecond).meets(90, time.Second) {
		t.Error("one failure in ten fails the p90 limit")
	}
	ph := fixedPhase(2, 10, 2, 200*time.Millisecond)
	if ph.meets(90, time.Second) {
		t.Error("two fast failures in ten meet the p90 limit")
	}
	if got := ph.limitLatenciesMS(); !math.IsInf(got[0], 1) || !math.IsInf(got[1], 1) {
		t.Errorf("failed requests' limit latencies = %v, want +Inf", got[:2])
	}
	if got := len(ph.okLatenciesMS()); got != 8 {
		t.Errorf("%d successful latencies, want 8 (failures excluded)", got)
	}
}

func TestMaxRateSelection(t *testing.T) {
	ok := func(rate float64) *phase { return fixedPhase(rate, 10, 0, 200*time.Millisecond) }
	slow := func(rate float64) *phase { return fixedPhase(rate, 10, 0, 2*time.Second) }
	failing := func(rate float64) *phase { return fixedPhase(rate, 10, 5, 200*time.Millisecond) }
	// A backlog that keeps draining long after the last arrival fails the
	// phase even when each answer alone is quick enough.
	backlog := ok(6)
	backlog.reqs[9].done = backlog.windowEnd.Add(1500 * time.Millisecond)
	backlog.reqs[9].ok = true

	for _, c := range []struct {
		name   string
		phases []*phase
		want   float64
	}{
		{"all meet", []*phase{ok(2), ok(4), ok(6)}, 6},
		{"highest too slow", []*phase{ok(2), ok(4), slow(6)}, 4},
		{"highest failing", []*phase{ok(2), failing(4), failing(6)}, 2},
		{"highest backlogged", []*phase{ok(2), ok(4), backlog}, 4},
		{"none meets", []*phase{failing(2), slow(4), failing(6)}, 0},
		{"no phases", nil, 0},
	} {
		if got := maxRate(c.phases, 90, time.Second); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeededAndIncreasing(t *testing.T) {
	a := poissonSchedule(2000, 4, rand.New(rand.NewSource(7)).Float64)
	b := poissonSchedule(2000, 4, rand.New(rand.NewSource(7)).Float64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules of one seed differ at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	// 2000 arrivals at 4/s span ~500 s.
	if span := a[len(a)-1].Seconds(); span < 450 || span > 550 {
		t.Errorf("2000 arrivals at 4/s span %.0f s", span)
	}
}

// BENCHMARK.json lists exactly the metrics the benchmarked workloads
// print, with the same units.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the tables %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], table %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	listed := map[string]bool{}
	for _, w := range bj.Workloads {
		listed[w.Name] = true
		if wl, ok := workloads[w.Name]; !ok || !wl.benchmarked {
			t.Errorf("BENCHMARK.json lists %q, which is not a benchmarked workload", w.Name)
		}
	}
	for name, wl := range workloads {
		if wl.benchmarked && !listed[name] {
			t.Errorf("benchmarked workload %q missing from BENCHMARK.json", name)
		}
	}
}

func TestCompleteChecksMetricNames(t *testing.T) {
	full := newOutcome()
	for _, d := range endToEnd {
		full.e2e.set(d.name, d.unit, 1)
	}
	if err := complete(full, false); err != nil {
		t.Fatalf("all end-to-end metrics set: %v", err)
	}
	missing := newOutcome()
	missing.e2e.set("p50_ms", "ms", 1)
	if complete(missing, false) == nil {
		t.Error("an untraced run missing end-to-end metrics passed")
	}
	traced := newOutcome()
	traced.layers.set("diagnosis.ms", "ms", 3)
	if err := complete(traced, true); err != nil {
		t.Fatal(err)
	}
	if got := traced.layers["volume.read_ms"]; got.Value != 0 || got.Unit != "ms" {
		t.Errorf("a layer off the workload's path reads %+v, want 0 ms", got)
	}
	if traced.layers["diagnosis.ms"].Value != 3 {
		t.Error("complete overwrote a measured layer")
	}
	unlisted := newOutcome()
	unlisted.layers.set("diagnosis.msec", "ms", 3)
	if complete(unlisted, true) == nil {
		t.Error("an unlisted layer metric passed")
	}
	wrongUnit := newOutcome()
	wrongUnit.layers.set("diagnosis.ms", "s", 3)
	if complete(wrongUnit, true) == nil {
		t.Error("a layer metric with the wrong unit passed")
	}
}
