package atpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// TestIncrementalImplyMatchesFull drives assign through random decision
// sequences and checks, after every step, that the event-driven planes
// equal a fresh full imply and that the D-frontier scan over the fault's
// cone picks the same objective as a scan of the whole topological order.
// Faults are drawn by kind in rotation (flop output pin, input pin,
// combinational output pin). Steps rotate through a primary-input
// assignment (it drives both frames), a flop assignment, a retraction of a
// random earlier decision to X, and PODEM-guided decisions, which follow
// the objective or retract the latest decision on a conflict: they are
// what activates the fault and moves a D through its cone.
func TestIncrementalImplyMatchesFull(t *testing.T) {
	p, _ := gen.ProfileByName("aes")
	small := gen.Generate(p.Scaled(0.04), 2)
	if err := small.Levelize(); err != nil {
		t.Fatal(err)
	}
	t.Run("aes-4pct", func(t *testing.T) { checkIncrementalImply(t, small) })
	t.Run("aes", func(t *testing.T) { checkIncrementalImply(t, fixtureDesign(t, "aes")) })
}

func checkIncrementalImply(t *testing.T, n *netlist.Netlist) {
	var kinds [3][]faultsim.Fault // flop output pin, input pin, combinational output pin
	for _, f := range faultsim.AllFaults(n) {
		switch typ := n.Gates[f.Gate].Type; {
		case f.Pin != faultsim.OutputPin:
			kinds[1] = append(kinds[1], f)
		case typ == netlist.DFF:
			kinds[0] = append(kinds[0], f)
		case !typ.IsSource():
			kinds[2] = append(kinds[2], f)
		}
	}
	for k, fs := range kinds {
		if len(fs) == 0 {
			t.Fatalf("no faults of kind %d", k)
		}
	}
	pd := newPodem(n, 10)
	ref := newPodem(n, 10)
	order := make([]int32, len(pd.order))
	for i, id := range pd.order {
		order[i] = int32(id)
	}
	runs, dSteps := 0, 0

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := kinds[runs%len(kinds)]
		runs++
		f := fs[rng.Intn(len(fs))]
		for i := range pd.piVal {
			pd.piVal[i] = vX
		}
		for i := range pd.ffVal {
			pd.ffVal[i] = vX
		}
		pd.imply(f)
		cone := pd.siteCone(f)
		site := f.SiteGate(n)
		want1 := v0
		if f.Pol == faultsim.SlowToFall {
			want1 = v1
		}
		want2 := v1 - want1
		var assigned []decision // live decisions, oldest first
		for step := 0; step < 25; step++ {
			d := decision{isPI: true, idx: rng.Intn(len(n.PIs)), val: byte(rng.Intn(2))}
			switch step % 6 {
			case 2:
				d = decision{idx: rng.Intn(len(n.FFs)), val: byte(rng.Intn(2))}
			case 4:
				if len(assigned) > 0 {
					i := rng.Intn(len(assigned))
					d = assigned[i]
					d.val = vX
					assigned = append(assigned[:i], assigned[i+1:]...)
				}
			case 1, 3, 5:
				// As PODEM does: follow the objective, or on a conflict
				// retract the latest decision.
				if isPI, idx, v, ok := guided(pd, f, site, want1, want2, cone); ok {
					d = decision{isPI: isPI, idx: idx, val: v}
				} else if len(assigned) > 0 {
					d = assigned[len(assigned)-1]
					d.val = vX
					assigned = assigned[:len(assigned)-1]
				}
			}
			if d.val != vX {
				assigned = append(assigned, d)
			}
			pd.assign(d.isPI, d.idx, d.val, f)

			copy(ref.piVal, pd.piVal)
			copy(ref.ffVal, pd.ffVal)
			ref.imply(f)
			hasD := false
			for id := range n.Gates {
				if pd.f1[id] != ref.f1[id] || pd.g2[id] != ref.g2[id] || pd.b2[id] != ref.b2[id] {
					t.Logf("seed %d fault %v step %d (%+v): gate %d f1/g2/b2 event %d/%d/%d full %d/%d/%d",
						seed, f, step, d, id, pd.f1[id], pd.g2[id], pd.b2[id], ref.f1[id], ref.g2[id], ref.b2[id])
					return false
				}
				if pd.g2[id] != vX && pd.b2[id] != vX && pd.g2[id] != pd.b2[id] {
					hasD = true
				}
			}
			if hasD {
				dSteps++
			}
			gC, vC, frC, okC := pd.objective(f, site, want1, want2, cone)
			gO, vO, frO, okO := pd.objective(f, site, want1, want2, order)
			if gC != gO || vC != vO || frC != frO || okC != okO {
				t.Logf("seed %d fault %v step %d: cone objective (%d,%d,%d,%v), full-order objective (%d,%d,%d,%v)",
					seed, f, step, gC, vC, frC, okC, gO, vO, frO, okO)
				return false
			}
		}
		return true
	}
	// A fixed source keeps the fault-effect coverage below reproducible.
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if dSteps == 0 {
		t.Fatal("no step put a fault effect on the frame-2 planes; the cone passes went untested")
	}
	t.Logf("%d runs, %d of %d steps with a fault effect", runs, dSteps, 25*runs)
}

// guided is one PODEM decision: the objective backtraced to a variable.
func guided(pd *podem, f faultsim.Fault, site int, want1, want2 byte, cone []int32) (isPI bool, idx int, val byte, ok bool) {
	gate, v, frame, ok := pd.objective(f, site, want1, want2, cone)
	if !ok {
		return false, 0, 0, false
	}
	return pd.backtrace(gate, v, frame)
}
