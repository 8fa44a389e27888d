package atpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

var fixtures sync.Map // profile name -> *netlist.Netlist

// fixtureDesign returns the named full-profile design, generated with seed
// 1 and FM-partitioned with seed 2, built once per test binary.
func fixtureDesign(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	if n, ok := fixtures.Load(name); ok {
		return n.(*netlist.Netlist)
	}
	p, ok := gen.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown profile %s", name)
	}
	m3d, err := partition.Partition(gen.Generate(p, 1), partition.FM, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := fixtures.LoadOrStore(name, m3d)
	return n.(*netlist.Netlist)
}

// patternDigest is the SHA-256 of the pattern count and every PI and flop
// word, little-endian.
func patternDigest(ps *sim.PatternSet) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(ps.N))
	h.Write(b[:])
	for _, plane := range [][][]uint64{ps.PI, ps.FF} {
		for _, sig := range plane {
			for _, w := range sig {
				binary.LittleEndian.PutUint64(b[:], w)
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// golden is a pinned Generate outcome.
type golden struct {
	digest                                 string
	total, detected, random, deterministic int
}

func checkGolden(t *testing.T, label string, res *Result, want golden) {
	t.Helper()
	got := golden{patternDigest(res.Patterns), res.Total, res.Detected, res.RandomPatterns, res.DeterministicPatterns}
	if got != want {
		t.Errorf("%s: pattern set changed\n got %+v\nwant %+v", label, got, want)
	}
}

// starved leaves most faults to the PODEM top-up: one random batch, then
// 300 targets at 100 backtracks each.
var starved = Options{Seed: 3, MaxRandomBatches: 1, MinBatchYield: 1000000, MaxTopUpFaults: 300, MaxBacktracks: 100}

// TestScaleATPG pins the pattern sets of the four fixture designs, under
// default options and with a starved random phase. Implication and
// frontier search may get faster; the patterns they find may not change.
func TestScaleATPG(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale designs")
	}
	for _, c := range []struct {
		name              string
		def, starvedTopUp golden
	}{
		{"aes",
			golden{"5623c81088d536e782091eef9f5a46cdc8ec1173025958462c51ddbd54a0db89", 23468, 22962, 640, 0},
			golden{"a9058b9bc4d9a72ad4fce1d63a106fbedef646ce0923a53d83c3aacfa45be5c0", 23468, 22527, 64, 0}},
		{"tate",
			golden{"3e34f2be066fb1fab8e04fe04e20c86b48026d704fccfac5fb9285117e34ac58", 44482, 43295, 1024, 0},
			golden{"6c957219e87b5ab52186ae64c71d8d31ad1584c4dbf782c808ba6349cb1ce654", 44482, 42180, 64, 0}},
		{"netcard",
			golden{"90246595051d2549f5937420b07b7a204f8fbdcde297fbdbe91a7ae1c58a7dfc", 74912, 73067, 896, 0},
			golden{"4ad6170a8d7c55c0b10408fba055da99737760b56ee78da1733c0d1badeff1bc", 74912, 70161, 64, 0}},
		{"leon3mp",
			golden{"99ef9d8334db3b61e7839a00fc526aed6baa6fefe4b591039035dae356654f2a", 91530, 87883, 1152, 0},
			golden{"62e402ad1c98315df4218ef0f32d09a57803204f4bd57e5fab7b0790e2dc40c3", 91530, 85492, 64, 0}},
	} {
		t0 := time.Now()
		m3d := fixtureDesign(t, c.name)
		tGen := time.Since(t0)
		t0 = time.Now()
		res, err := Generate(m3d, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tDef := time.Since(t0)
		checkGolden(t, c.name, res, c.def)
		t0 = time.Now()
		sres, err := Generate(m3d, starved)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.name+" starved", sres, c.starvedTopUp)
		st, _ := m3d.ComputeStats()
		t.Logf("%s: gates=%d ffs=%d mivs=%d depth=%d | FC=%.3f pats=%d (r%d+d%d) | gen=%v atpg=%v starved=%v",
			c.name, st.Gates, st.FFs, st.MIVs, st.Depth, res.Coverage(), res.Patterns.N,
			res.RandomPatterns, res.DeterministicPatterns, tGen, tDef, time.Since(t0))
	}
}
