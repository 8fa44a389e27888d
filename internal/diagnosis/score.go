package diagnosis

import (
	"math"
	"math/bits"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/sim"
)

// Observed is a sanitized failure log in the form candidate scoring
// compares predictions against: one words-long bit mask per observation
// point, bit p set when pattern p failed there. It is read-only once
// built, so one Observed may be shared by forked engines scoring the same
// log concurrently.
type Observed struct {
	Compacted bool

	words int
	mask  []uint64 // NumObs × words
	// horizon holds the patterns whose predicted failures count as
	// evidence: every applied pattern, cut at the last recorded pattern
	// when the tester's fail memory truncated the log.
	horizon []uint64
	total   int // distinct observed failures
}

// Observe builds the observed masks for a sanitized log, with the scoring
// horizon set by the log's truncation.
func (d *Engine) Observe(log *failurelog.Log) *Observed {
	horizon := int32(-1)
	if log.Truncated {
		horizon = log.LastPattern()
	}
	return d.observe(log, horizon)
}

// observe builds the observed masks with an explicit horizon: predicted
// failures on patterns past it are ignored (-1 = none).
func (d *Engine) observe(log *failurelog.Log, horizon int32) *Observed {
	words := d.ps.Words()
	o := &Observed{
		Compacted: log.Compacted,
		words:     words,
		mask:      make([]uint64, d.arch.NumObs(log.Compacted)*words),
		horizon:   make([]uint64, words),
	}
	for _, f := range log.Fails {
		w := &o.mask[int(f.Obs)*words+int(f.Pattern)/64]
		bit := uint64(1) << (uint(f.Pattern) % 64)
		if *w&bit == 0 {
			*w |= bit
			o.total++
		}
	}
	last := d.ps.N - 1
	if horizon >= 0 && int(horizon) < last {
		last = int(horizon)
	}
	for p := 0; p <= last; p += 64 {
		o.horizon[p/64] = ^uint64(0)
	}
	if last >= 0 {
		o.horizon[last/64] = sim.TailMask(last + 1)
	}
	return o
}

// predRow is one observation point's predicted failure mask.
type predRow struct {
	obs  int
	mask []uint64
}

// scoreScratch is an engine's private candidate-scoring state. The
// compacted fold accumulates flop differences per (channel, position)
// in acc; stamp marks which positions the current candidate touched, so
// a position whose fold returns to zero and is flipped again is still
// listed exactly once.
type scoreScratch struct {
	acc     []uint64 // channel positions × words
	stamp   []int32  // per channel position
	cur     int32
	touched []int32
	pred    []predRow
}

// predict fault-simulates one candidate and returns its predicted
// failure masks per observation point, in the log's observation mode.
// Rows alias engine scratch (faultsim's and the compacted fold's) and are
// valid until the next predict; bits past the horizon are not cleared.
func (d *Engine) predict(cand faultsim.Fault, compacted bool) []predRow {
	return d.fold(d.fsim.DiffObs(d.res, cand), compacted)
}

// fold maps observation-gate differences to observation points, XOR-ing
// flops that share a compacted channel position.
func (d *Engine) fold(diffs []faultsim.ObsDiff, compacted bool) []predRow {
	s := &d.scr
	s.pred = s.pred[:0]
	if !compacted {
		for _, od := range diffs {
			s.pred = append(s.pred, predRow{obs: d.arch.ObsOfGate(od.Gate, false), mask: od.Mask})
		}
		return s.pred
	}
	words := d.ps.Words()
	npo := len(d.arch.Netlist().POs)
	if s.stamp == nil {
		positions := d.arch.NumObs(true) - npo
		s.acc = make([]uint64, positions*words)
		s.stamp = make([]int32, positions)
	}
	if s.cur == math.MaxInt32 {
		clear(s.stamp)
		s.cur = 0
	}
	s.cur++
	s.touched = s.touched[:0]
	for _, od := range diffs {
		o := d.arch.ObsOfGate(od.Gate, true)
		if o < npo {
			s.pred = append(s.pred, predRow{obs: o, mask: od.Mask})
			continue
		}
		p := o - npo
		row := s.acc[p*words : (p+1)*words]
		if s.stamp[p] != s.cur {
			s.stamp[p] = s.cur
			s.touched = append(s.touched, int32(p))
			copy(row, od.Mask)
			continue
		}
		for w := range row {
			row[w] ^= od.Mask[w]
		}
	}
	for _, p := range s.touched {
		s.pred = append(s.pred, predRow{obs: npo + int(p), mask: s.acc[int(p)*words : (int(p)+1)*words]})
	}
	return s.pred
}

// count returns how many predicted failures inside the horizon the log
// observed (TFSF) and did not observe (TPSF).
func (o *Observed) count(pred []predRow) (tfsf, tpsf int) {
	for _, r := range pred {
		row := o.mask[r.obs*o.words : (r.obs+1)*o.words]
		for w, m := range r.mask {
			m &= o.horizon[w]
			tfsf += bits.OnesCount64(m & row[w])
			tpsf += bits.OnesCount64(m &^ row[w])
		}
	}
	return tfsf, tpsf
}
