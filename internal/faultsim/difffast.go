package faultsim

import (
	"repro/internal/netlist"
	"repro/internal/sim"
)

// diffState holds reusable buffers for the single-fault multi-word diff
// path, the inner loop of diagnosis candidate scoring.
type diffState struct {
	words  int
	fval   []uint64 // len gates*words: faulty values where vstamp matches
	vstamp []int32
	pstamp []int32
	stamp  int32
	queue  *netlist.LevelQueue
	capts  []int32 // changed capture gates collected during propagation
	isCapt []bool
	out    []uint64  // words: gate evaluation result
	pert   []uint64  // words: perturbed input of an input-pin fault
	obs    []uint64  // one words-long mask slot per PO, then per flop
	diffs  []ObsDiff // DiffObs result, aliasing obs
}

func (e *Engine) initDiff(words int) {
	n := e.n
	ds := &diffState{
		words:  words,
		fval:   make([]uint64, len(n.Gates)*words),
		vstamp: make([]int32, len(n.Gates)),
		pstamp: make([]int32, len(n.Gates)),
		isCapt: make([]bool, len(n.Gates)),
		out:    make([]uint64, words),
		pert:   make([]uint64, words),
		obs:    make([]uint64, (len(n.POs)+len(n.FFs))*words),
		diffs:  make([]ObsDiff, 0, len(n.POs)+len(n.FFs)),
	}
	for i := range ds.vstamp {
		ds.vstamp[i] = -1
		ds.pstamp[i] = -1
	}
	for _, po := range n.POs {
		ds.isCapt[n.Gates[po].Fanin[0]] = true
	}
	for _, ff := range n.FFs {
		ds.isCapt[n.Gates[ff].Fanin[0]] = true
	}
	ds.queue = netlist.NewLevelQueue(n)
	e.dfs = ds
}

// ObsDiff is one observation gate's good-vs-faulty capture difference.
type ObsDiff struct {
	// Gate is the PO or flop gate ID.
	Gate int
	// Mask is the bit-parallel difference, one bit per pattern. Bits past
	// the last pattern of the final word are not cleared.
	Mask []uint64
}

// DiffObs simulates one fault and returns the nonzero observation-gate
// differences, POs first and then flops, each in netlist order. It is the
// single-fault equivalent of Diff and allocates nothing once the engine's
// scratch is sized: the returned slice and every Mask alias that scratch
// and stay valid only until the engine's next simulation.
func (e *Engine) DiffObs(res *sim.Result, f Fault) []ObsDiff {
	words := len(res.V2[0])
	if e.dfs == nil || e.dfs.words != words {
		e.initDiff(words)
	}
	ds := e.dfs
	ds.stamp++
	st := ds.stamp
	n := e.n

	good := func(id int) []uint64 { return res.V2[id] }
	faulty := func(id int) []uint64 {
		if ds.vstamp[id] == st {
			return ds.fval[id*words : (id+1)*words]
		}
		return good(id)
	}

	seed := f.Gate
	seedIsDFFOut := f.Pin == OutputPin && n.Gates[seed].Type == netlist.DFF
	ds.queue.Reset()
	ds.capts = ds.capts[:0]
	// DFF/PO input-pin faults only perturb the observation itself.
	obsOnly := false
	if f.Pin != OutputPin {
		t := n.Gates[f.Gate].Type
		if t == netlist.DFF || t == netlist.Output {
			obsOnly = true
		}
	}
	if !obsOnly {
		ds.queue.Push(int32(seed))
		ds.pstamp[seed] = st
	}

	out := ds.out
	for !ds.queue.Empty() {
		id := int(ds.queue.PopMin())
		g := n.Gates[id]
		switch {
		case g.Type == netlist.DFF:
			if !(id == seed && seedIsDFFOut) {
				continue
			}
			gv := good(id)
			for w := 0; w < words; w++ {
				out[w] = applyTDF(f.Pol, res.V1[id][w], gv[w])
			}
		case g.Type == netlist.Output || g.Type == netlist.Input:
			continue
		default:
			evalFastWords(g, faulty, words, out)
			if id == f.Gate && f.Pin != OutputPin {
				src := g.Fanin[f.Pin]
				sv := faulty(src)
				pert := ds.pert
				for w := 0; w < words; w++ {
					pert[w] = applyTDF(f.Pol, res.V1[src][w], sv[w])
				}
				evalFastWordsOverride(g, faulty, f.Pin, pert, words, out)
			}
			if id == f.Gate && f.Pin == OutputPin {
				for w := 0; w < words; w++ {
					out[w] = applyTDF(f.Pol, res.V1[id][w], out[w])
				}
			}
		}
		gv := good(id)
		diff := false
		for w := 0; w < words; w++ {
			if out[w] != gv[w] {
				diff = true
				break
			}
		}
		if !diff {
			continue
		}
		copy(ds.fval[id*words:(id+1)*words], out)
		ds.vstamp[id] = st
		if ds.isCapt[id] {
			ds.capts = append(ds.capts, int32(id))
		}
		for _, s := range g.Fanout {
			sg := n.Gates[s]
			if sg.Type == netlist.Output || sg.Type == netlist.DFF {
				continue
			}
			if ds.pstamp[s] != st {
				ds.pstamp[s] = st
				ds.queue.Push(int32(s))
			}
		}
	}

	// Fold changed capture sources into observation diffs, applying any
	// observation-local input-pin fault.
	ds.diffs = ds.diffs[:0]
	record := func(slot, obsGate, captureSrc int) {
		gv := good(captureSrc)
		captured := faulty(captureSrc)
		d := ds.obs[slot*words : (slot+1)*words]
		local := f.Pin != OutputPin && f.Gate == obsGate
		any := uint64(0)
		for w := 0; w < words; w++ {
			c := captured[w]
			if local {
				c = applyTDF(f.Pol, res.V1[captureSrc][w], c)
			}
			d[w] = c ^ gv[w]
			any |= d[w]
		}
		if any != 0 {
			ds.diffs = append(ds.diffs, ObsDiff{Gate: obsGate, Mask: d})
		}
	}
	for i, po := range n.POs {
		src := n.Gates[po].Fanin[0]
		if ds.vstamp[src] == st || (f.Pin != OutputPin && f.Gate == po) {
			record(i, po, src)
		}
	}
	for i, ff := range n.FFs {
		src := n.Gates[ff].Fanin[0]
		if ds.vstamp[src] == st || (f.Pin != OutputPin && f.Gate == ff) {
			record(len(n.POs)+i, ff, src)
		}
	}
	return ds.diffs
}

// diffFast is Diff for one fault: DiffObs copied out into a map.
func (e *Engine) diffFast(res *sim.Result, f Fault) map[int][]uint64 {
	diffs := e.DiffObs(res, f)
	obsDiff := make(map[int][]uint64, len(diffs))
	for _, od := range diffs {
		obsDiff[od.Gate] = append([]uint64(nil), od.Mask...)
	}
	return obsDiff
}

// evalFastWords evaluates a gate word-wise from per-gate value accessors.
func evalFastWords(g *netlist.Gate, val func(int) []uint64, words int, out []uint64) {
	switch g.Type {
	case netlist.Buf:
		copy(out, val(g.Fanin[0]))
	case netlist.Not:
		src := val(g.Fanin[0])
		for w := 0; w < words; w++ {
			out[w] = ^src[w]
		}
	case netlist.And, netlist.Nand:
		copy(out, val(g.Fanin[0]))
		for _, f := range g.Fanin[1:] {
			src := val(f)
			for w := 0; w < words; w++ {
				out[w] &= src[w]
			}
		}
		if g.Type == netlist.Nand {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Or, netlist.Nor:
		copy(out, val(g.Fanin[0]))
		for _, f := range g.Fanin[1:] {
			src := val(f)
			for w := 0; w < words; w++ {
				out[w] |= src[w]
			}
		}
		if g.Type == netlist.Nor {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Xor, netlist.Xnor:
		copy(out, val(g.Fanin[0]))
		for _, f := range g.Fanin[1:] {
			src := val(f)
			for w := 0; w < words; w++ {
				out[w] ^= src[w]
			}
		}
		if g.Type == netlist.Xnor {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Mux:
		sel, a, b := val(g.Fanin[0]), val(g.Fanin[1]), val(g.Fanin[2])
		for w := 0; w < words; w++ {
			out[w] = (sel[w] & b[w]) | (^sel[w] & a[w])
		}
	}
}

// evalFastWordsOverride is evalFastWords with one input overridden.
func evalFastWordsOverride(g *netlist.Gate, val func(int) []uint64, pin int, pv []uint64, words int, out []uint64) {
	in := func(p int) []uint64 {
		if p == pin {
			return pv
		}
		return val(g.Fanin[p])
	}
	switch g.Type {
	case netlist.Buf:
		copy(out, in(0))
	case netlist.Not:
		src := in(0)
		for w := 0; w < words; w++ {
			out[w] = ^src[w]
		}
	case netlist.And, netlist.Nand:
		copy(out, in(0))
		for p := 1; p < len(g.Fanin); p++ {
			src := in(p)
			for w := 0; w < words; w++ {
				out[w] &= src[w]
			}
		}
		if g.Type == netlist.Nand {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Or, netlist.Nor:
		copy(out, in(0))
		for p := 1; p < len(g.Fanin); p++ {
			src := in(p)
			for w := 0; w < words; w++ {
				out[w] |= src[w]
			}
		}
		if g.Type == netlist.Nor {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Xor, netlist.Xnor:
		copy(out, in(0))
		for p := 1; p < len(g.Fanin); p++ {
			src := in(p)
			for w := 0; w < words; w++ {
				out[w] ^= src[w]
			}
		}
		if g.Type == netlist.Xnor {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Mux:
		sel, a, b := in(0), in(1), in(2)
		for w := 0; w < words; w++ {
			out[w] = (sel[w] & b[w]) | (^sel[w] & a[w])
		}
	}
}
