package faultsim

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestDiffObsMatchesDiff cross-checks the allocation-free single-fault
// diff against the generic fault-set path (a fault listed twice applies
// once, so Diff takes the generic route) on multi-word results with a
// partial last word, and checks its order: POs, then flops.
func TestDiffObsMatchesDiff(t *testing.T) {
	prop := func(seed int64) bool {
		n := randomSeqCircuit(seed)
		s, err := sim.New(n)
		if err != nil {
			return false
		}
		e := NewEngine(s)
		res := s.Run(sim.RandomPatterns(n, 150, seed+5))
		rank := map[int]int{}
		for _, g := range append(append([]int(nil), n.POs...), n.FFs...) {
			rank[g] = len(rank)
		}
		for _, f := range AllFaults(n) {
			want := e.Diff(res, []Fault{f, f})
			got := map[int][]uint64{}
			last := -1
			for _, od := range e.DiffObs(res, f) {
				if rank[od.Gate] <= last {
					t.Logf("seed %d fault %v: gate %d out of PO-then-flop order", seed, f, od.Gate)
					return false
				}
				last = rank[od.Gate]
				got[od.Gate] = append([]uint64(nil), od.Mask...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d fault %v: DiffObs %v, Diff %v", seed, f, got, want)
				return false
			}
			slow := false
			for _, m := range want {
				m[len(m)-1] &= sim.TailMask(res.N)
				for _, w := range m {
					slow = slow || w != 0
				}
			}
			if det := e.Detects(res, f); det != slow {
				t.Logf("seed %d fault %v: Detects=%v, tail-masked Diff=%v", seed, f, det, slow)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffObsAllocFree pins the scoring inner loop's contract: once the
// engine's scratch is sized, DiffObs and the multi-word Detects allocate
// nothing, and Detects leaves the diff it reads untouched.
func TestDiffObsAllocFree(t *testing.T) {
	n := randomSeqCircuit(11)
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s)
	res := s.Run(sim.RandomPatterns(n, 150, 12))
	faults := AllFaults(n)
	e.DiffObs(res, faults[0])
	allocs := testing.AllocsPerRun(5, func() {
		for _, f := range faults {
			e.DiffObs(res, f)
			e.Detects(res, f)
		}
	})
	if allocs != 0 {
		t.Fatalf("DiffObs/Detects allocate %.1f times per sweep", allocs)
	}
	for _, f := range faults {
		var before [][]uint64
		for _, od := range e.DiffObs(res, f) {
			before = append(before, append([]uint64(nil), od.Mask...))
		}
		e.Detects(res, f)
		for i, od := range e.dfs.diffs {
			if !reflect.DeepEqual(od.Mask, before[i]) {
				t.Fatalf("fault %v: Detects rewrote the diff of gate %d", f, od.Gate)
			}
		}
	}
}
