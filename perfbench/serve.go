package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
)

// servePool is how many distinct failure logs a serve workload draws from
// the seed; requests cycle through them.
const servePool = 24

// serveRates are serve-open's fixed offered rates (requests per second).
// On two cores a diagnosis takes ~0.27 s, so the capacity is ~7 req/s and
// the rates span ~25-90% of it.
var serveRates = []struct {
	name string
	rate float64
}{{"lo", 2}, {"mid", 4}, {"hi", 6}}

// Latency limit for serve_max_rps: the 90th percentile of all requests of
// a phase, failures counting as misses, and the drain after its last
// arrival, must stay within serveLimit.
const (
	serveLimitP = 90
	serveLimit  = time.Second
)

// reference is the in-process report a served log must reproduce.
type reference struct {
	key   string
	nodes int // back-traced subgraph size
	o     *policy.Outcome
}

// serveRun is one serve workload: the fixture served by serve.New's
// handler with the production default serve.Config on loopback HTTP, a
// serve.Client, and the tallies of what came back.
type serveRun struct {
	fx     *fixture
	chips  []dataset.Sample
	refs   []reference
	reg    *obs.Registry
	ts     *httptest.Server
	client *serve.Client
	alloc0 uint64

	mu            sync.Mutex
	err500, wrong int
	// Completed diagnoses (200s, right or wrong), for per-layer ratios.
	completed, atpgCands, pruned, nodes int
	sendLat                             []float64 // from the actual send, for serve.http_ms
}

// newServeRun sets up the aes fixture, draws the logs from the seed,
// computes their reference reports and starts the server.
func newServeRun(rc runConfig, out *outcome) (*serveRun, error) {
	fx, err := setUpFor(rc, fixtureDesign("aes"), setupReps, out)
	if err != nil {
		return nil, err
	}
	chips := fx.b.Generate(dataset.SampleOptions{Count: servePool, Seed: rc.seed, MIVFraction: 0.2})
	if len(chips) != servePool {
		return nil, fmt.Errorf("generated %d of %d logs", len(chips), servePool)
	}
	refs, err := references(fx, chips)
	if err != nil {
		return nil, err
	}
	s := &serveRun{fx: fx, chips: chips, refs: refs}
	s.start(rc)
	return s, nil
}

// start starts the server and its client; in a traced run the server
// records into a registry of its own.
func (s *serveRun) start(rc runConfig) {
	cfg := serve.Config{}
	if rc.trace {
		s.reg = obs.NewRegistry()
		cfg.Metrics = s.reg
		cfg.Tracer = obs.NewTracer(s.reg, 1)
	}
	s.ts = httptest.NewServer(serve.New(s.fx.b, s.fx.fw, cfg).Handler())
	s.client = &serve.Client{Base: s.ts.URL, Seed: rc.seed}
	s.alloc0 = totalAlloc()
}

func (s *serveRun) close() {
	s.client.Close()
	s.ts.Close()
}

// send posts request k (log k mod servePool), fills in q's send and
// answer times, and checks the answer against the reference. It is safe
// for concurrent use.
func (s *serveRun) send(k int, q *request) {
	q.sent = time.Now()
	resp, err := s.client.Diagnose(context.Background(), s.chips[k%servePool].Log, serve.DiagnoseOptions{})
	q.done = time.Now()
	ref := s.refs[k%servePool]
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		var se *serve.StatusError
		if errors.As(err, &se) && se.Status == http.StatusInternalServerError {
			s.err500++
		}
		fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", k, err)
		return
	}
	s.completed++
	s.atpgCands += resp.ATPGResolution
	s.nodes += ref.nodes
	if resp.Pruned {
		s.pruned++
	}
	if responseKey(resp) != ref.key {
		s.wrong++
		fmt.Fprintf(os.Stderr, "perfbench: request %d: report differs from the in-process report\n", k)
		return
	}
	q.ok = true
	s.sendLat = append(s.sendLat, ms(q.done.Sub(q.sent)))
}

// servePass is the serving part of chip-fixture's traced run: it sends
// the first servePool chips, one request at a time, to serve.New's handler
// with the production default serve.Config on loopback HTTP, through
// serve.Client. Each answer must equal the chip's report from the direct
// core calls (keys). With one request in flight it splits out the serving
// layer's own cost (admission, HTTP, JSON, log parsing) without the
// concurrency serve-open adds. It returns the requests sent and failed.
func servePass(rc runConfig, fx *fixture, chips []dataset.Sample, keys []string, m metrics) (sent, failed int) {
	n := min(servePool, len(chips))
	s := &serveRun{fx: fx, chips: chips[:n], refs: make([]reference, n)}
	for i := range s.refs {
		s.refs[i].key = keys[i]
	}
	s.start(rc)
	defer s.close()
	prev := time.Now()
	var late []float64
	for k := 0; k < n; k++ {
		// Closed loop: a request is due when the previous answer arrived.
		q := request{due: prev}
		s.send(k, &q)
		prev = q.done
		late = append(late, ms(q.lateness()))
		if !q.ok {
			failed++
		}
	}
	m.set("serve.gen_late_ms", "ms", percentile(late, 100))
	s.serveLayers(m)
	return n, failed
}

// runServeOpen offers the server seeded Poisson arrivals at three fixed
// rates, one phase after another, at the production default concurrency.
// Until the shared-engine race in serving is fixed, concurrent requests
// fail with 500s and this workload's failures are that race's.
func runServeOpen(rc runConfig) (*outcome, error) {
	out := newOutcome()
	s, err := newServeRun(rc, out)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rng := rand.New(rand.NewSource(rc.seed))
	perPhase := rc.seconds / time.Duration(len(serveRates))
	var phases []*phase
	var elapsed time.Duration
	next := 0
	for _, r := range serveRates {
		n := max(int(r.rate*perPhase.Seconds()), 1)
		ph := &phase{name: r.name, rate: r.rate, reqs: make([]request, n)}
		offsets := poissonSchedule(n, r.rate, rng.Float64)
		var wg sync.WaitGroup
		start := time.Now()
		ph.windowEnd = start.Add(offsets[n-1])
		for i := range offsets {
			q := &ph.reqs[i]
			q.due = start.Add(offsets[i])
			time.Sleep(time.Until(q.due))
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				s.send(k, q)
			}(next)
			next++
		}
		wg.Wait()
		elapsed += time.Since(start)
		phases = append(phases, ph)
	}
	s.report(rc, out, phases, elapsed)
	m := out.e2e
	m.set("serve_max_rps", "1/s", maxRate(phases, serveLimitP, serveLimit))
	m.set("fail_share", "share", float64(out.failed)/float64(out.attempted))
	// A phase has a few dozen requests: its tail is the highest percentile,
	// up to p90, that leaves ten successful requests beyond it (0 when not
	// even the median does).
	for _, ph := range phases {
		lat := ph.okLatenciesMS()
		p := highestSupported(len(lat), 90)
		m.set("serve_ok."+ph.name, "count", float64(len(lat)))
		m.set("serve_p50_ms."+ph.name, "ms", orZero(median(append([]float64(nil), lat...))))
		m.set("serve_tail_pct."+ph.name, "%", float64(p))
		m.set("serve_tail_ms."+ph.name, "ms", 0)
		if p > 0 {
			m.set("serve_tail_ms."+ph.name, "ms", percentile(lat, float64(p)))
		}
	}
	return out, nil
}

// report fills in the metrics every serve workload shares.
func (s *serveRun) report(rc runConfig, out *outcome, phases []*phase, elapsed time.Duration) {
	var okLat, late []float64
	first := make([]string, servePool)
	k := 0
	for _, ph := range phases {
		for _, q := range ph.reqs {
			out.attempted++
			if !q.ok {
				out.failed++
			}
			late = append(late, ms(q.lateness()))
			if k < servePool {
				first[k] = "failed"
				if q.ok {
					first[k] = s.refs[k].key
				}
			}
			k++
		}
		okLat = append(okLat, ph.okLatenciesMS()...)
	}
	out.digest = digest(first)
	hits, cands := 0, 0
	for i, ref := range s.refs {
		cands += ref.o.Report.Resolution()
		if ref.o.Report.FirstHit(s.fx.b.Netlist, s.chips[i].Faults) > 0 {
			hits++
		}
	}
	e := out.e2e
	e.set("p50_ms", "ms", orZero(median(append([]float64(nil), okLat...))))
	e.set("p75_ms", "ms", orZero(percentile(okLat, 75)))
	e.set("throughput_per_s", "1/s", float64(out.attempted-out.failed)/elapsed.Seconds())
	out.layers.set("quality.accuracy_pct", "%", 100*float64(hits)/float64(len(s.refs)))
	out.layers.set("quality.resolution_mean", "count", float64(cands)/float64(len(s.refs)))
	e.set("ok_share", "share", float64(out.attempted-out.failed)/float64(out.attempted))

	m := out.layers
	m.set("serve.gen_late_ms", "ms", percentile(late, 100))
	m.set("run.items", "count", float64(out.attempted))
	if !rc.trace {
		m.set("serve.err500", "count", float64(s.err500))
		m.set("serve.wrong", "count", float64(s.wrong))
		return
	}
	n := max(s.completed, 1)
	spanStats(s.reg, m, n)
	coreLayers(s.reg, m, n)
	// Allocation of the whole process, HTTP and JSON included, per request.
	m.set("diagnosis.alloc_mb", "MB", float64(totalAlloc()-s.alloc0)/(1<<20)/float64(out.attempted))
	m.set("backtrace.nodes", "count", float64(s.nodes)/float64(n))
	m.set("policy.pruned_share", "share", float64(s.pruned)/float64(n))
	scored := s.reg.Counter("m3d_diag_candidates_scored_total").Value()
	m.set("diagnosis.useful_share", "share", ratio(float64(s.atpgCands), float64(scored)))
	m.set("traced.p50_ms", "ms", orZero(median(okLat)))
	s.serveLayers(m)
}

// serveLayers reports what the server's registry recorded about the
// serving layer, and the client-side failure counts.
func (s *serveRun) serveLayers(m metrics) {
	m.set("serve.err500", "count", float64(s.err500))
	m.set("serve.wrong", "count", float64(s.wrong))
	qw := s.reg.Histogram("m3d_queue_wait_seconds", obs.DurationBuckets)
	m.set("serve.queue_wait_ms", "ms", 1000*ratio(qw.Sum(), float64(qw.Count())))
	hd := s.reg.Histogram("m3d_http_request_seconds", obs.DurationBuckets, "route", "/diagnose")
	handle := 1000 * ratio(hd.Sum(), float64(hd.Count()))
	m.set("serve.handle_ms", "ms", handle)
	m.set("serve.http_ms", "ms", orZero(mean(s.sendLat))-handle)
	shed := int64(0)
	for _, reason := range []string{"queue_full", "deadline_in_queue", "cancelled_in_queue", "other"} {
		shed += s.reg.Counter("m3d_shed_total", "reason", reason).Value()
	}
	m.set("serve.shed", "count", float64(shed))
}

// references computes, for every log, the report core produces in process,
// one log at a time per engine. Two workers share the work, each with its
// own forked diagnosis engine and framework replica.
func references(fx *fixture, chips []dataset.Sample) ([]reference, error) {
	var model bytes.Buffer
	if err := fx.fw.Save(&model); err != nil {
		return nil, err
	}
	refs := make([]reference, len(chips))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		fw, err := core.Load(bytes.NewReader(model.Bytes()))
		if err != nil {
			return nil, err
		}
		b := *fx.b
		b.Diag = fx.b.Diag.Fork()
		wg.Add(1)
		go func(w int, fw *core.Framework, b *dataset.Bundle) {
			defer wg.Done()
			for i := w; i < len(chips); i += 2 {
				rep, sg, o, err := fw.DiagnoseFullCtx(context.Background(), b, chips[i].Log)
				if err != nil {
					errs[w] = err
					return
				}
				refs[i] = reference{key: canonical(o, rep.Resolution()), nodes: sg.NumNodes(), o: o}
			}
		}(w, fw, &b)
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// responseKey renders a served report in canonical's form.
func responseKey(r *serve.DiagnoseResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tier=%d conf=%v pruned=%t mivs=%v atpg=%d:", r.PredictedTier, r.Confidence, r.Pruned, r.FaultyMIVs, r.ATPGResolution)
	for _, c := range r.Candidates {
		fmt.Fprintf(&b, " %s/%d/%d/%d/%v", c.Fault, c.TFSF, c.TFSP, c.TPSF, c.Score)
	}
	return b.String()
}

// orZero maps the NaN of an empty sample to 0 (no successful request).
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
