package diagnosis

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
)

// InjectLog simulates the given fault set as a defective chip and returns
// the failure log a tester would record, in the requested observation
// mode. This is the paper's data-generation flow (Fig. 4): inject TDFs,
// run logic simulation with the TDF patterns, collect erroneous responses.
func (d *Engine) InjectLog(faults []faultsim.Fault, compacted bool) *failurelog.Log {
	diff := d.fsim.Diff(d.res, faults)
	return &failurelog.Log{
		Design:    d.arch.Netlist().Name,
		Compacted: compacted,
		Fails:     d.arch.FailuresFromDiff(diff, d.ps.N, compacted),
	}
}

// DiagnoseMulti produces a report for logs that may contain several
// simultaneous TDFs (the paper's Section VII-A scenario: 2–5 systematic
// defects in one tier). Candidate extraction relaxes the intersection
// requirement — no single fault explains every response — and a greedy
// set-cover pass selects a small candidate group that jointly explains the
// log, followed by near-tie candidates up to the report cap.
func (d *Engine) DiagnoseMulti(log *failurelog.Log) *Report {
	rep, _ := d.DiagnoseMultiCtx(context.Background(), log)
	return rep
}

// DiagnoseMultiCtx is DiagnoseMulti with cooperative cancellation: the
// context is checked before each candidate fault simulation and each greedy
// cover round, so an expired deadline stops the (much larger) multi-fault
// candidate sweep promptly. On cancellation it returns a nil report and the
// context's error. Candidate scoring spreads over idle cores like
// DiagnoseCtx's; the greedy cover is serial.
func (d *Engine) DiagnoseMultiCtx(ctx context.Context, log *failurelog.Log) (*Report, error) {
	ctx, leave := par.Enter(ctx)
	defer leave()
	rep := newReport(log)
	log = d.sanitize(log)
	if log.Empty() {
		return rep, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("diagnosis: multi: %w", err)
	}
	span := obs.Start(ctx, "diagnosis.extract")
	count, responses := d.suspects(log)

	// Multi-fault extraction: a defect only needs to explain a fraction of
	// the responses. Take every site voted by at least 15% of responses,
	// falling back to the best-voted sites.
	n := d.arch.Netlist()
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
	span.End()
	obs.Add(ctx, "m3d_diag_candidates_extracted_total", int64(len(cands)))

	// Score all candidates, on idle cores too, and keep their predicted
	// failure masks for the cover pass. Multi-fault scoring ignores
	// truncation: every applied pattern is evidence.
	span = obs.Start(ctx, "diagnosis.score")
	observed := d.observe(log, -1)
	words := observed.words
	type scoredCand struct {
		Candidate
		obs  []int32  // observation points with predicted failures
		pred []uint64 // their masks, words each, cut after the last pattern
	}
	sc := d.scorers()
	all, err := par.MapIdleCtx(ctx, len(sc.engs), len(cands), func(w, i int) scoredCand {
		// rows alias worker w's scratch: copy them before its next predict.
		rows := sc.engine(w).predict(cands[i], log.Compacted)
		c := Candidate{Fault: cands[i]}
		c.TFSF, c.TPSF = observed.count(rows)
		c.TFSP = observed.total - c.TFSF
		c.Score = float64(c.TFSF) - d.opt.TPSFWeight*float64(c.TPSF)
		if c.TFSF == 0 {
			return scoredCand{Candidate: c}
		}
		out := scoredCand{
			Candidate: c,
			obs:       make([]int32, 0, len(rows)),
			pred:      make([]uint64, 0, len(rows)*words),
		}
		for _, r := range rows {
			out.obs = append(out.obs, int32(r.obs))
			for k, m := range r.mask {
				out.pred = append(out.pred, m&observed.horizon[k])
			}
		}
		return out
	})
	sc.release(ctx)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("diagnosis: multi: %w", err)
	}
	scored := make([]scoredCand, 0, len(all))
	for _, c := range all {
		if c.TFSF > 0 {
			scored = append(scored, c)
		}
	}
	obs.Add(ctx, "m3d_diag_candidates_scored_total", int64(len(cands)))

	span = obs.Start(ctx, "diagnosis.cover")
	defer span.End()
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].Fault.Gate < scored[j].Fault.Gate
	})

	// Greedy cover: repeatedly take the candidate explaining the most
	// still-uncovered failures (the first one on ties). Gains only shrink
	// as failures get covered, so a candidate's last computed gain bounds
	// its current one: a candidate whose bound cannot strictly beat the
	// round's best so far is skipped without changing the pick.
	uncovered := append([]uint64(nil), observed.mask...)
	left := observed.total
	chosen := make([]bool, len(scored))
	bound := make([]int, len(scored))
	for i := range bound {
		bound[i] = math.MaxInt
	}
	var picks []int
	for left > 0 && len(picks) < 8 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("diagnosis: multi: %w", err)
		}
		bestIdx, bestGain := -1, 0
		for i := range scored {
			if chosen[i] || bound[i] <= bestGain {
				continue
			}
			gain := 0
			for k, o := range scored[i].obs {
				row := uncovered[int(o)*words : (int(o)+1)*words]
				for w, m := range scored[i].pred[k*words : (k+1)*words] {
					gain += bits.OnesCount64(m & row[w])
				}
			}
			bound[i] = gain
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen[bestIdx] = true
		picks = append(picks, bestIdx)
		best := &scored[bestIdx]
		for k, o := range best.obs {
			row := uncovered[int(o)*words : (int(o)+1)*words]
			for w, m := range best.pred[k*words : (k+1)*words] {
				row[w] &^= m
			}
		}
		left -= bestGain
	}
	for _, i := range picks {
		rep.Candidates = append(rep.Candidates, scored[i].Candidate)
	}
	// Fill with near-tie candidates for realistic resolution.
	for i := range scored {
		if len(rep.Candidates) >= d.opt.MaxCandidates {
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
	return rep, nil
}
