package diagnosis

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
)

// oracleKey packs a failing bit for set comparison.
func oracleKey(f scan.Failure) int64 { return int64(f.Pattern)<<32 | int64(uint32(f.Obs)) }

// oracleObserved is the observed log as a set of failing bits.
func oracleObserved(log *failurelog.Log) map[int64]bool {
	observed := make(map[int64]bool, len(log.Fails))
	for _, f := range log.Fails {
		observed[oracleKey(f)] = true
	}
	return observed
}

// oracleCount is the reference scoring rule as set comparison: every
// predicted failure inside the horizon (-1 = none) is looked up in the
// observed set.
func oracleCount(pred []scan.Failure, observed map[int64]bool, horizon int32) (tfsf, tpsf int) {
	for _, p := range pred {
		if horizon >= 0 && p.Pattern > horizon {
			continue
		}
		if observed[oracleKey(p)] {
			tfsf++
		} else {
			tpsf++
		}
	}
	return tfsf, tpsf
}

// oracleScore scores one candidate the reference way: expand the fault's
// difference map into failures, then count them against the observed set.
func oracleScore(d *Engine, cand faultsim.Fault, log *failurelog.Log) Candidate {
	horizon := int32(-1)
	if log.Truncated {
		horizon = log.LastPattern()
	}
	observed := oracleObserved(log)
	diff := d.fsim.Diff(d.res, []faultsim.Fault{cand})
	pred := d.arch.FailuresFromDiff(diff, d.ps.N, log.Compacted)
	c := Candidate{Fault: cand}
	c.TFSF, c.TPSF = oracleCount(pred, observed, horizon)
	c.TFSP = len(observed) - c.TFSF
	c.Score = float64(c.TFSF) - d.opt.TFSPWeight*float64(c.TFSP) - d.opt.TPSFWeight*float64(c.TPSF)
	return c
}

var (
	oracleMu      sync.Mutex
	oracleEngines = map[string]*fixture{}
)

// oracleFixture builds (once per design) a small partitioned design with
// patterns and a diagnosis engine.
func oracleFixture(t *testing.T, design string) *fixture {
	t.Helper()
	oracleMu.Lock()
	defer oracleMu.Unlock()
	if f, ok := oracleEngines[design]; ok {
		return f
	}
	p, ok := gen.ProfileByName(design)
	if !ok {
		t.Fatalf("unknown design %q", design)
	}
	p = p.Scaled(0.1)
	n := gen.Generate(p, 3)
	m3d, err := partition.Partition(n, partition.FM, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := atpg.Generate(m3d, atpg.Options{Seed: 3, TargetCoverage: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := scan.Build(m3d, p.ScanChains, p.CompactionRatio)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(arch, ares.Patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{eng: eng, faults: faultsim.AllFaults(m3d)}
	oracleEngines[design] = f
	return f
}

// oracleLogs returns uncompacted, compacted, and tester-truncated logs of
// a few detectable single faults.
func oracleLogs(fx *fixture, seed int64) []*failurelog.Log {
	var logs []*failurelog.Log
	for _, compacted := range []bool{false, true} {
		for _, f := range detectableFaults(fx, compacted, 3, seed) {
			log := fx.eng.InjectLog([]faultsim.Fault{f}, compacted)
			logs = append(logs, log)
			trunc := *log
			trunc.Fails = log.Fails[:(len(log.Fails)+1)/2]
			trunc.Truncated = true
			logs = append(logs, &trunc)
		}
	}
	return logs
}

// TestScoreMatchesOracle checks the bitmask scoring against the
// set-comparison reference for every extracted candidate and every branch
// expansion of one, on two designs in every observation mode.
func TestScoreMatchesOracle(t *testing.T) {
	for _, design := range []string{"aes", "netcard"} {
		fx := oracleFixture(t, design)
		d := fx.eng
		modes := map[string]int{}
		for _, log := range oracleLogs(fx, 7) {
			log = d.sanitize(log)
			modes[modeName(log)]++
			count, responses := d.suspects(log)
			cands := d.extractCandidates(log, count, responses)
			for _, c := range cands {
				cands = append(cands, d.branchCandidates(c)...)
			}
			observed := d.Observe(log)
			for _, cand := range cands {
				got, want := d.score(cand, observed), oracleScore(d, cand, log)
				if got != want {
					t.Fatalf("%s %s %v: bitmask %+v, oracle %+v", design, modeName(log), cand, got, want)
				}
			}
		}
		for _, m := range []string{"uncompacted", "compacted", "uncompacted truncated", "compacted truncated"} {
			if modes[m] == 0 {
				t.Fatalf("%s: no %s log exercised", design, m)
			}
		}
	}
}

func modeName(log *failurelog.Log) string {
	s := "uncompacted"
	if log.Compacted {
		s = "compacted"
	}
	if log.Truncated {
		s += " truncated"
	}
	return s
}

// TestCompactedFoldRevisit drives the compacted fold with constructed
// differences: three cells in one channel position flip, so the XOR fold
// reaches zero after two and is flipped again by the third. The position
// must be listed exactly once, and only the third cell's bits survive.
func TestCompactedFoldRevisit(t *testing.T) {
	n := netlist.New("fold")
	in := n.AddGate("in", netlist.Input)
	ffs := make([]int, 6)
	for i := range ffs {
		ffs[i] = n.AddGate("", netlist.DFF)
		n.Connect(ffs[i], in)
	}
	po := n.AddGate("po", netlist.Output, in)
	// Three chains in one channel: flops 0,1,2 sit at position 0 of
	// chains 0,1,2; flops 3,4,5 at position 1.
	arch, err := scan.Build(n, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	const patterns = 70
	d := &Engine{arch: arch, ps: sim.NewPatternSet(n, patterns)}
	pos0 := arch.ObsOfFF(0, true)
	if arch.ObsOfFF(1, true) != pos0 || arch.ObsOfFF(2, true) != pos0 {
		t.Fatal("flops 0-2 do not share a channel position")
	}
	x := []uint64{0xf0f0, 0x3f}    // bit 69 is past the last pattern
	y := []uint64{0x0ff0, 1 << 60} // bit 124 too
	z := []uint64{0x1, 0x2}
	obsLog := &failurelog.Log{Compacted: true, Fails: []scan.Failure{
		{Pattern: 4, Obs: int32(pos0)},
		{Pattern: 8, Obs: int32(pos0)},
		{Pattern: 0, Obs: int32(arch.ObsOfFF(3, true))},
		{Pattern: 1, Obs: int32(arch.ObsOfPO(0))},
	}}
	cases := []map[int][]uint64{
		{ffs[0]: x, ffs[1]: x, ffs[2]: y, po: z},
		{ffs[0]: x, ffs[1]: x, ffs[2]: y, ffs[3]: z, ffs[4]: z},
		{ffs[1]: y, ffs[3]: z, ffs[5]: x},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		c := map[int][]uint64{}
		for _, g := range append([]int{po}, ffs...) {
			if rng.Intn(3) > 0 {
				c[g] = []uint64{rng.Uint64() & rng.Uint64(), rng.Uint64() & rng.Uint64()}
			}
		}
		cases = append(cases, c)
	}
	for _, horizon := range []int32{-1, 6} {
		observed := d.observe(obsLog, horizon)
		for ci, diff := range cases {
			// Observation-gate order as DiffObs emits it: POs, then flops.
			var diffs []faultsim.ObsDiff
			for _, g := range append([]int{po}, ffs...) {
				if m, ok := diff[g]; ok {
					diffs = append(diffs, faultsim.ObsDiff{Gate: g, Mask: m})
				}
			}
			rows := d.fold(diffs, true)
			seen := map[int]bool{}
			for _, r := range rows {
				if seen[r.obs] {
					t.Fatalf("case %d: observation %d listed twice", ci, r.obs)
				}
				seen[r.obs] = true
			}
			tfsf, tpsf := observed.count(rows)
			pred := arch.FailuresFromDiff(diff, patterns, true)
			wantF, wantP := oracleCount(pred, oracleObserved(obsLog), horizon)
			if tfsf != wantF || tpsf != wantP {
				t.Fatalf("case %d horizon %d: bitmask (%d, %d), oracle (%d, %d)", ci, horizon, tfsf, tpsf, wantF, wantP)
			}
		}
	}
}
