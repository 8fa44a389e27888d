package faultsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// slowDetects is the reference detection path through the full Diff map.
func slowDetects(e *Engine, res *sim.Result, f Fault) bool {
	d := e.Diff(res, []Fault{f})
	for _, mask := range d {
		m := append([]uint64(nil), mask...)
		m[len(m)-1] &= sim.TailMask(res.N)
		for _, w := range m {
			if w != 0 {
				return true
			}
		}
	}
	return false
}

// TestDetectsFastMatchesDiff cross-checks the event-driven single-word
// fast path against the full Diff computation for every fault of random
// sequential circuits.
func TestDetectsFastMatchesDiff(t *testing.T) {
	prop := func(seed int64) bool {
		n := randomSeqCircuit(seed)
		s, err := sim.New(n)
		if err != nil {
			return false
		}
		e := NewEngine(s)
		ps := sim.RandomPatterns(n, 64, seed+3)
		res := s.Run(ps)
		for _, f := range AllFaults(n) {
			fast := e.detectsFast(res, f)
			slow := slowDetects(e, res, f)
			if fast != slow {
				t.Logf("seed %d fault %v: fast=%v slow=%v", seed, f, fast, slow)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// randomSeqCircuit builds a random sequential circuit: 3 PIs, 5 flops,
// 60 mixed gates, flops fed from deep in the logic, one PO.
func randomSeqCircuit(seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New("rand")
	var pool []int
	for i := 0; i < 3; i++ {
		pool = append(pool, n.AddGate("", netlist.Input))
	}
	var ffs []int
	for i := 0; i < 5; i++ {
		id := n.AddGate("", netlist.DFF)
		ffs = append(ffs, id)
		pool = append(pool, id)
	}
	types := []netlist.GateType{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Mux,
	}
	for i := 0; i < 60; i++ {
		gt := types[rng.Intn(len(types))]
		var fi []int
		switch gt {
		case netlist.Not, netlist.Buf:
			fi = []int{pool[rng.Intn(len(pool))]}
		case netlist.Mux:
			fi = []int{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		default:
			fi = []int{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		}
		pool = append(pool, n.AddGate("", gt, fi...))
	}
	for _, ff := range ffs {
		n.Connect(ff, pool[rng.Intn(len(pool)-8)+8])
	}
	n.AddGate("", netlist.Output, pool[len(pool)-1])
	return n
}

func TestDetectsFastPartialWord(t *testing.T) {
	// Fewer than 64 patterns: tail bits must not cause phantom detections.
	n := netlist.New("t")
	ff := n.AddGate("ff", netlist.DFF)
	inv := n.AddGate("inv", netlist.Not, ff)
	n.Connect(ff, inv)
	n.AddGate("po", netlist.Output, inv)
	s, _ := sim.New(n)
	e := NewEngine(s)
	ps := sim.NewPatternSet(n, 3) // all-zero scan states
	res := s.Run(ps)
	// ff=0: inv launches 1, capture 0: falling edge. STR never activates.
	f := Fault{Gate: inv, Pin: OutputPin, Pol: SlowToRise}
	if e.detectsFast(res, f) != slowDetects(e, res, f) {
		t.Fatal("partial-word mismatch")
	}
}
