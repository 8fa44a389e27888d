package scan

import (
	"testing"

	"repro/internal/netlist"
)

// design builds a netlist with np POs and nf flops.
func design(t *testing.T, np, nf int) *netlist.Netlist {
	t.Helper()
	n := netlist.New("d")
	a := n.AddGate("a", netlist.Input)
	inv := n.AddGate("inv", netlist.Not, a)
	for i := 0; i < np; i++ {
		n.AddGate("", netlist.Output, inv)
	}
	for i := 0; i < nf; i++ {
		ff := n.AddGate("", netlist.DFF)
		n.Connect(ff, inv)
	}
	return n
}

func TestBuildStitching(t *testing.T) {
	n := design(t, 2, 10)
	a, err := Build(n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChains() != 3 {
		t.Fatalf("chains = %d", a.NumChains())
	}
	if a.ChainLen != 4 { // 10 flops round-robin in 3 chains: 4,3,3
		t.Fatalf("chain len = %d", a.ChainLen)
	}
	if a.Channels != 2 {
		t.Fatalf("channels = %d", a.Channels)
	}
	// Every flop appears exactly once.
	seen := map[int]bool{}
	for _, ch := range a.Chains {
		for _, ff := range ch {
			if seen[ff] {
				t.Fatalf("flop %d stitched twice", ff)
			}
			seen[ff] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("stitched %d flops", len(seen))
	}
	// ChainPos inverse of Chains.
	for i := range n.FFs {
		c, p := a.ChainPos(i)
		if a.Chains[c][p] != n.FFs[i] {
			t.Fatalf("ChainPos mismatch for flop %d", i)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	n := design(t, 1, 4)
	if _, err := Build(n, 0, 2); err == nil {
		t.Fatal("chains=0 accepted")
	}
	noFF := netlist.New("x")
	a := noFF.AddGate("a", netlist.Input)
	noFF.AddGate("o", netlist.Output, a)
	if _, err := Build(noFF, 1, 1); err == nil {
		t.Fatal("flopless design accepted")
	}
}

func TestObsIndexing(t *testing.T) {
	n := design(t, 2, 10)
	a, _ := Build(n, 3, 2)
	if a.NumObs(false) != 2+10 {
		t.Fatalf("uncompacted obs = %d", a.NumObs(false))
	}
	if a.NumObs(true) != 2+2*4 {
		t.Fatalf("compacted obs = %d", a.NumObs(true))
	}
	// Uncompacted: each flop has its own observation.
	seen := map[int]bool{}
	for i := range n.FFs {
		o := a.ObsOfFF(i, false)
		if seen[o] {
			t.Fatal("duplicate uncompacted obs")
		}
		seen[o] = true
		gs := a.ObsGates(o, false)
		if len(gs) != 1 || gs[0] != n.FFs[i] {
			t.Fatalf("ObsGates(%d) = %v", o, gs)
		}
	}
	// Compacted: chains 0,1 share channel 0.
	o00 := a.ObsOfFF(0, true) // flop 0: chain 0 pos 0
	o10 := a.ObsOfFF(1, true) // flop 1: chain 1 pos 0
	if o00 != o10 {
		t.Fatalf("chains in same channel must share obs: %d vs %d", o00, o10)
	}
	o20 := a.ObsOfFF(2, true) // chain 2 -> channel 1
	if o20 == o00 {
		t.Fatal("different channels must differ")
	}
	gs := a.ObsGates(o00, true)
	if len(gs) != 2 || gs[0] != n.FFs[0] || gs[1] != n.FFs[1] {
		t.Fatalf("channel obs gates = %v", gs)
	}
}

func TestObsOfGate(t *testing.T) {
	n := design(t, 2, 10)
	a, _ := Build(n, 3, 2)
	for _, compacted := range []bool{false, true} {
		for i, po := range n.POs {
			if got := a.ObsOfGate(po, compacted); got != a.ObsOfPO(i) {
				t.Fatalf("compacted=%v PO %d: ObsOfGate = %d, want %d", compacted, i, got, a.ObsOfPO(i))
			}
		}
		for i, ff := range n.FFs {
			if got := a.ObsOfGate(ff, compacted); got != a.ObsOfFF(i, compacted) {
				t.Fatalf("compacted=%v flop %d: ObsOfGate = %d, want %d", compacted, i, got, a.ObsOfFF(i, compacted))
			}
		}
		for _, g := range []int{n.GateByName("a"), n.GateByName("inv")} {
			if got := a.ObsOfGate(g, compacted); got != -1 {
				t.Fatalf("compacted=%v gate %d is no observation, got %d", compacted, g, got)
			}
		}
	}
}

func TestFailuresFromDiffUncompacted(t *testing.T) {
	n := design(t, 2, 10)
	a, _ := Build(n, 3, 2)
	diff := map[int][]uint64{
		n.FFs[4]: {0b101}, // patterns 0 and 2
		n.POs[1]: {0b010}, // pattern 1
	}
	fails := a.FailuresFromDiff(diff, 3, false)
	if len(fails) != 3 {
		t.Fatalf("fails = %v", fails)
	}
	want := []Failure{
		{0, int32(a.ObsOfFF(4, false))},
		{1, int32(a.ObsOfPO(1))},
		{2, int32(a.ObsOfFF(4, false))},
	}
	for i, f := range fails {
		if f != want[i] {
			t.Fatalf("fails[%d] = %v want %v", i, f, want[i])
		}
	}
}

func TestCompactionAliasing(t *testing.T) {
	n := design(t, 0, 10)
	a, _ := Build(n, 3, 2)
	// Flops 0 and 1: chain 0 pos 0 and chain 1 pos 0, same channel.
	ffA, ffB := n.FFs[0], n.FFs[1]
	// Both flipped on pattern 0: XOR cancels (aliasing).
	fails := a.FailuresFromDiff(map[int][]uint64{
		ffA: {0b1},
		ffB: {0b1},
	}, 1, true)
	if len(fails) != 0 {
		t.Fatalf("even flips must alias to pass, got %v", fails)
	}
	// Only one flipped: visible.
	fails = a.FailuresFromDiff(map[int][]uint64{ffA: {0b1}}, 1, true)
	if len(fails) != 1 {
		t.Fatalf("single flip must fail, got %v", fails)
	}
	// Same pattern, different positions: both visible.
	ffD := n.FFs[3] // chain 0 pos 1
	fails = a.FailuresFromDiff(map[int][]uint64{ffA: {0b1}, ffD: {0b1}}, 1, true)
	if len(fails) != 2 {
		t.Fatalf("different positions must not alias, got %v", fails)
	}
}

func TestFailuresTailMasked(t *testing.T) {
	n := design(t, 0, 4)
	a, _ := Build(n, 2, 2)
	// Diff claims pattern 5 fails but only 3 patterns exist.
	fails := a.FailuresFromDiff(map[int][]uint64{n.FFs[0]: {0b101000}}, 3, false)
	if len(fails) != 0 {
		t.Fatalf("tail bits leaked: %v", fails)
	}
}

func TestCaptureGate(t *testing.T) {
	n := design(t, 1, 2)
	a, _ := Build(n, 1, 1)
	inv := n.GateByName("inv")
	if a.CaptureGate(n.FFs[0]) != inv || a.CaptureGate(n.POs[0]) != inv {
		t.Fatal("CaptureGate should return the data source")
	}
}
