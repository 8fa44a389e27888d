package diagnosis_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/scan"
)

func oracleKey(f scan.Failure) int64 { return int64(f.Pattern)<<32 | int64(uint32(f.Obs)) }

// oracleDiagnoseMulti is the reference multi-fault diagnosis: predicted
// failures as expanded lists, the observed log and the greedy cover's
// uncovered set as maps keyed by failing bit.
func oracleDiagnoseMulti(d *diagnosis.Engine, log *failurelog.Log) *diagnosis.Report {
	rep := &diagnosis.Report{Design: log.Design, Compacted: log.Compacted}
	log = d.Sanitize(log)
	if log.Empty() {
		return rep
	}
	opt := d.OptionsForTest()
	ps := d.PatternsForTest()
	count, responses := d.SuspectsForTest(log)
	n := d.Arch().Netlist()
	need := int32(float64(responses) * 0.15)
	if need < 1 {
		need = 1
	}
	var cands []faultsim.Fault
	for lvl := 0; lvl < 2 && len(cands) == 0; lvl++ {
		for id, c := range count {
			if c < need {
				continue
			}
			g := n.Gates[id]
			if g.Type == netlist.Input || g.Type == netlist.Output {
				continue
			}
			cands = append(cands,
				faultsim.Fault{Gate: id, Pin: faultsim.OutputPin, Pol: faultsim.SlowToRise},
				faultsim.Fault{Gate: id, Pin: faultsim.OutputPin, Pol: faultsim.SlowToFall})
		}
		need = 1
	}
	observed := make(map[int64]bool, len(log.Fails))
	for _, f := range log.Fails {
		observed[oracleKey(f)] = true
	}
	type scoredCand struct {
		diagnosis.Candidate
		pred []scan.Failure
	}
	scored := make([]scoredCand, 0, len(cands))
	for _, cand := range cands {
		diff := d.FaultSim().Diff(d.Result(), []faultsim.Fault{cand})
		pred := d.Arch().FailuresFromDiff(diff, ps.N, log.Compacted)
		c := diagnosis.Candidate{Fault: cand}
		for _, p := range pred {
			if observed[oracleKey(p)] {
				c.TFSF++
			} else {
				c.TPSF++
			}
		}
		c.TFSP = len(observed) - c.TFSF
		c.Score = float64(c.TFSF) - opt.TPSFWeight*float64(c.TPSF)
		if c.TFSF == 0 {
			continue
		}
		scored = append(scored, scoredCand{Candidate: c, pred: pred})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].Fault.Gate < scored[j].Fault.Gate
	})
	uncovered := make(map[int64]bool, len(observed))
	for k := range observed {
		uncovered[k] = true
	}
	chosen := make([]bool, len(scored))
	var picks []int
	for len(uncovered) > 0 && len(picks) < 8 {
		bestIdx, bestGain := -1, 0
		for i := range scored {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, p := range scored[i].pred {
				if uncovered[oracleKey(p)] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen[bestIdx] = true
		picks = append(picks, bestIdx)
		for _, p := range scored[bestIdx].pred {
			delete(uncovered, oracleKey(p))
		}
	}
	for _, i := range picks {
		rep.Candidates = append(rep.Candidates, scored[i].Candidate)
	}
	for i := range scored {
		if len(rep.Candidates) >= opt.MaxCandidates {
			break
		}
		if chosen[i] {
			continue
		}
		if len(picks) > 0 && scored[i].Score < scored[picks[0]].Score*0.5 {
			break
		}
		rep.Candidates = append(rep.Candidates, scored[i].Candidate)
	}
	return rep
}

// TestDiagnoseMultiMatchesOracle checks the bitmask set cover against the
// map-based reference on Table X's multi-fault logs (2-5 same-tier
// faults on the Syn-2 configuration), compacted, uncompacted and
// truncated. Reports must match with the idle cores helping one caller
// score, and with more concurrent callers than cores.
func TestDiagnoseMultiMatchesOracle(t *testing.T) {
	p, _ := gen.ProfileByName("aes")
	b, err := dataset.Build(p.Scaled(0.15), dataset.Syn2, dataset.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var logs []*failurelog.Log
	for _, compacted := range []bool{false, true} {
		samples := b.Generate(dataset.SampleOptions{Count: 6, Seed: 302, MultiFault: true, Compacted: compacted})
		if len(samples) == 0 {
			t.Fatal("no multi-fault samples generated")
		}
		for _, s := range samples {
			logs = append(logs, s.Log)
		}
		trunc := *samples[0].Log
		trunc.Fails = trunc.Fails[:(len(trunc.Fails)+1)/2]
		trunc.Truncated = true
		logs = append(logs, &trunc)
	}
	want := make([]*diagnosis.Report, len(logs))
	for i, log := range logs {
		want[i] = oracleDiagnoseMulti(b.Diag, log)
		if len(want[i].Candidates) == 0 {
			t.Fatalf("log %d: empty reference report", i)
		}
		if got := b.Diag.DiagnoseMulti(log); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("log %d (compacted=%v truncated=%v): bitmask report differs from the map-based reference\n got %+v\nwant %+v",
				i, log.Compacted, log.Truncated, got.Candidates, want[i].Candidates)
		}
	}
	callers := runtime.GOMAXPROCS(0) + 2
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		eng := b.Diag.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(logs); i += callers {
				if got := eng.DiagnoseMulti(logs[i]); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("log %d, saturated: report differs from the reference", i)
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
