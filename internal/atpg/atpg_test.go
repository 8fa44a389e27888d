package atpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func smallDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	p, _ := gen.ProfileByName("aes")
	return gen.Generate(p.Scaled(0.05), 1)
}

func TestGenerateAchievesCoverage(t *testing.T) {
	n := smallDesign(t)
	res, err := Generate(n, Options{Seed: 3, TargetCoverage: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.90 {
		t.Fatalf("coverage %.3f too low (detected %d / %d, %d random + %d deterministic patterns)",
			res.Coverage(), res.Detected, res.Total, res.RandomPatterns, res.DeterministicPatterns)
	}
	if res.Patterns.N == 0 {
		t.Fatal("no patterns kept")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	n := smallDesign(t)
	a, _ := Generate(n, Options{Seed: 5, MaxRandomBatches: 4, SkipTopUp: true})
	b, _ := Generate(n, Options{Seed: 5, MaxRandomBatches: 4, SkipTopUp: true})
	if a.Patterns.N != b.Patterns.N || a.Detected != b.Detected {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Patterns.N, a.Detected, b.Patterns.N, b.Detected)
	}
	for i := range a.Patterns.PI {
		for w := range a.Patterns.PI[i] {
			if a.Patterns.PI[i][w] != b.Patterns.PI[i][w] {
				t.Fatal("pattern bits differ")
			}
		}
	}
}

func TestTopUpImprovesCoverage(t *testing.T) {
	// Starve the random phase (a single 64-pattern batch) so that
	// random-resistant but testable faults remain for PODEM.
	n := smallDesign(t)
	noTop, _ := Generate(n, Options{Seed: 7, MaxRandomBatches: 1, SkipTopUp: true, MinBatchYield: 1000000})
	withTop, _ := Generate(n, Options{Seed: 7, MaxRandomBatches: 1, MinBatchYield: 1000000, MaxTopUpFaults: 2000, MaxBacktracks: 100})
	if withTop.Detected <= noTop.Detected {
		t.Fatalf("PODEM top-up added no detections: %d vs %d (of %d)", withTop.Detected, noTop.Detected, noTop.Total)
	}
	if withTop.DeterministicPatterns == 0 {
		t.Fatal("no deterministic patterns generated")
	}
	// The top-up's success path, pinned: on the full designs PODEM adds no
	// pattern (see TestScaleATPG), here it adds two.
	checkGolden(t, "starved small design", withTop,
		golden{"b59eddac75d7ecf4d6c082c53168a9543de23132317c93ef52bc2f0e192d7f14", 1004, 936, 64, 2})
}

// TestPodemPatternsPinned runs PODEM on every fault of the small design and
// pins which faults it finds a pattern for and the bits of each pattern.
func TestPodemPatternsPinned(t *testing.T) {
	n := smallDesign(t)
	gen := newPodem(n, 24)
	faults := faultsim.AllFaults(n)
	h := sha256.New()
	found := 0
	for _, f := range faults {
		ps, ok := gen.generate(f)
		if !ok {
			h.Write([]byte{0})
			continue
		}
		found++
		h.Write([]byte{1})
		var b [8]byte
		for _, plane := range [][][]uint64{ps.PI, ps.FF} {
			for _, sig := range plane {
				binary.LittleEndian.PutUint64(b[:], sig[0])
				h.Write(b[:])
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	const want = "8195f2a24f39a6bcadd67401b0c37ced8640fc7169cc7d9b75358c3073dc7ac1"
	if len(faults) != 1004 || found != 786 || got != want {
		t.Fatalf("PODEM outcomes changed: %d faults, %d patterns, digest %s; want 1004, 786, %s",
			len(faults), found, got, want)
	}
}

// TestPodemPatternsActuallyDetect verifies that every PODEM-claimed pattern
// detects its target fault under the real fault simulator.
func TestPodemPatternsActuallyDetect(t *testing.T) {
	n := smallDesign(t)
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	eng := faultsim.NewEngine(s)
	gen := newPodem(n, 24)
	faults := faultsim.AllFaults(n)
	// Sample a spread of faults.
	checked, generated := 0, 0
	for i := 0; i < len(faults) && checked < 120; i += 97 {
		f := faults[i]
		checked++
		ps, ok := gen.generate(f)
		if !ok {
			continue
		}
		generated++
		res := s.Run(ps)
		if !eng.Detects(res, f) {
			t.Fatalf("PODEM pattern for %v does not detect it", f)
		}
	}
	if generated < checked/2 {
		t.Fatalf("PODEM succeeded on only %d/%d sampled faults", generated, checked)
	}
}

// TestPodemToggle checks PODEM on a hand-analyzable sequential circuit.
func TestPodemToggle(t *testing.T) {
	n := netlist.New("toggle")
	ff := n.AddGate("ff", netlist.DFF)
	inv := n.AddGate("inv", netlist.Not, ff)
	n.Connect(ff, inv)
	n.AddGate("po", netlist.Output, inv)
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	gen := newPodem(n, 10)
	// STR at inv output requires launch inv=0 (ff=1), capture inv=1.
	ps, ok := gen.generate(faultsim.Fault{Gate: inv, Pin: faultsim.OutputPin, Pol: faultsim.SlowToRise})
	if !ok {
		t.Fatal("PODEM failed on trivial circuit")
	}
	if !sim.GetBit(ps.FF[0], 0) {
		t.Fatal("PODEM should scan 1 into ff to launch a rising edge at inv")
	}
}

func TestPodemImpossibleFault(t *testing.T) {
	// A gate fed only by static PIs can never transition under LOC.
	n := netlist.New("static")
	a := n.AddGate("a", netlist.Input)
	b := n.AddGate("b", netlist.Input)
	g := n.AddGate("g", netlist.And, a, b)
	n.AddGate("po", netlist.Output, g)
	ff := n.AddGate("ff", netlist.DFF)
	n.Connect(ff, g)
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	gen := newPodem(n, 10)
	if _, ok := gen.generate(faultsim.Fault{Gate: g, Pin: faultsim.OutputPin, Pol: faultsim.SlowToRise}); ok {
		t.Fatal("PODEM generated a pattern for an untestable fault")
	}
}

func TestCoverageZeroTotal(t *testing.T) {
	r := &Result{}
	if r.Coverage() != 0 {
		t.Fatal("empty result coverage should be 0")
	}
}

func TestCollapsedGenerateMatchesCoverageShape(t *testing.T) {
	n := smallDesign(t)
	full, err := Generate(n, Options{Seed: 9, MaxRandomBatches: 4, SkipTopUp: true})
	if err != nil {
		t.Fatal(err)
	}
	collapsed, err := Generate(n, Options{Seed: 9, MaxRandomBatches: 4, SkipTopUp: true, Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	if collapsed.Total >= full.Total {
		t.Fatalf("collapsed list not smaller: %d vs %d", collapsed.Total, full.Total)
	}
	// Coverage on equivalent lists should land within a few percent.
	if d := collapsed.Coverage() - full.Coverage(); d > 0.05 || d < -0.05 {
		t.Fatalf("coverage diverges: %.3f vs %.3f", collapsed.Coverage(), full.Coverage())
	}
}
