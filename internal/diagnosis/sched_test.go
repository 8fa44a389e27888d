package diagnosis

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/failurelog"
	"repro/internal/obs"
)

// serialDiagnose is DiagnoseCtx on the serial schedule: every candidate
// scored in order on the one engine.
func serialDiagnose(d *Engine, log *failurelog.Log) *Report {
	rep := newReport(log)
	log = d.sanitize(log)
	if log.Empty() {
		return rep
	}
	count, responses := d.suspects(log)
	cands := d.extractCandidates(log, count, responses)
	observed := d.Observe(log)
	var scored []Candidate
	for _, cand := range cands {
		if c := d.score(cand, observed); c.TFSF > 0 {
			scored = append(scored, c)
		}
	}
	RankCandidates(scored)
	for _, c := range scored[:min(len(scored), RefineTop)] {
		for _, bc := range d.branchCandidates(c.Fault) {
			if sc := d.score(bc, observed); sc.TFSF > 0 {
				scored = append(scored, sc)
			}
		}
	}
	RankCandidates(scored)
	d.fillReport(rep, scored)
	return rep
}

// overCores runs fn on more concurrent callers than there are cores, each
// with its own fork of d, so no scoring helper can find an idle core, and
// returns the first error.
func overCores(d *Engine, fn func(eng *Engine) error) error {
	callers := runtime.GOMAXPROCS(0) + 2
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		eng := d.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- fn(eng)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestDiagnoseMatchesSerialAtAnyLoad: reports equal the serial schedule's
// when one caller has the idle cores to itself and when more callers than
// cores keep every core busy, on uncompacted, compacted and truncated
// logs.
func TestDiagnoseMatchesSerialAtAnyLoad(t *testing.T) {
	for _, design := range []string{"aes", "netcard"} {
		fx := oracleFixture(t, design)
		logs := append(oracleLogs(fx, 11), &failurelog.Log{Design: design})
		want := make([]*Report, len(logs))
		for i, log := range logs {
			want[i] = serialDiagnose(fx.eng, log)
		}
		reg := obs.NewRegistry()
		ctx := obs.WithRegistry(context.Background(), reg)
		for i, log := range logs {
			got, err := fx.eng.DiagnoseCtx(ctx, log)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s log %d (%s), idle: report differs from the serial schedule", design, i, modeName(log))
			}
		}
		h := reg.Histogram(ScoreWorkersHistogram, workerBuckets)
		t.Logf("%s: idle diagnoses scored on %.2f goroutines on average", design, h.Sum()/float64(h.Count()))
		err := overCores(fx.eng, func(eng *Engine) error {
			for i, log := range logs {
				got, err := eng.DiagnoseCtx(context.Background(), log)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, want[i]) {
					return fmt.Errorf("%s log %d (%s), saturated: report differs from the serial schedule", design, i, modeName(log))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
