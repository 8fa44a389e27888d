// Package scan models the design-for-test architecture the paper's flow
// relies on: scan chains stitched through every flop, and an embedded
// deterministic test (EDT) style XOR space compactor that folds up to
// CompactionRatio chains into one output channel. A bypass mode scans out
// uncompacted responses, exactly like the bypass signals the paper inserts.
//
// Observation points are indexed in a flat space shared with the failure
// log and the diagnosis engine:
//
//	uncompacted: [0, numPOs) primary outputs, then one point per scan cell
//	compacted:   [0, numPOs) primary outputs, then one point per
//	             (channel, shift position) pair
package scan

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Arch is the scan/compactor architecture of one design.
type Arch struct {
	n *netlist.Netlist
	// Chains holds FF gate IDs per chain in scan-out order.
	Chains [][]int
	// ChainLen is the maximum chain length (shift positions).
	ChainLen int
	// Channels is the number of compacted output channels.
	Channels int
	// Ratio is the max chains per channel.
	Ratio int

	chainOf []int32 // by FF index in n.FFs
	posOf   []int32
	// obsOf is the uncompacted observation index per gate ID: PO gates
	// map to their PO index, flops to numPOs + flop index, others to -1.
	obsOf []int32
}

// Build stitches the netlist's flops into the given number of chains with
// round-robin assignment (deterministic in flop creation order) and groups
// chains into channels of at most ratio chains.
func Build(n *netlist.Netlist, chains, ratio int) (*Arch, error) {
	if chains < 1 || ratio < 1 {
		return nil, fmt.Errorf("scan: need chains>=1 and ratio>=1, got %d, %d", chains, ratio)
	}
	nff := len(n.FFs)
	if nff == 0 {
		return nil, fmt.Errorf("scan: design %s has no flops", n.Name)
	}
	if chains > nff {
		chains = nff
	}
	a := &Arch{
		n:       n,
		Chains:  make([][]int, chains),
		Ratio:   ratio,
		chainOf: make([]int32, nff),
		posOf:   make([]int32, nff),
	}
	for i, ff := range n.FFs {
		c := i % chains
		a.chainOf[i] = int32(c)
		a.posOf[i] = int32(len(a.Chains[c]))
		a.Chains[c] = append(a.Chains[c], ff)
	}
	for _, ch := range a.Chains {
		if len(ch) > a.ChainLen {
			a.ChainLen = len(ch)
		}
	}
	a.Channels = (chains + ratio - 1) / ratio
	a.obsOf = make([]int32, len(n.Gates))
	for i := range a.obsOf {
		a.obsOf[i] = -1
	}
	for i, po := range n.POs {
		a.obsOf[po] = int32(a.ObsOfPO(i))
	}
	for i, ff := range n.FFs {
		a.obsOf[ff] = int32(a.ObsOfFF(i, false))
	}
	return a, nil
}

// Netlist returns the design the architecture was built for.
func (a *Arch) Netlist() *netlist.Netlist { return a.n }

// NumChains returns the number of scan chains.
func (a *Arch) NumChains() int { return len(a.Chains) }

// ChainPos returns the chain index and shift position of the i-th flop
// (index into the netlist's FFs slice).
func (a *Arch) ChainPos(ffIdx int) (chain, pos int) {
	return int(a.chainOf[ffIdx]), int(a.posOf[ffIdx])
}

// ChannelOf returns the output channel a chain feeds.
func (a *Arch) ChannelOf(chain int) int { return chain / a.Ratio }

// NumObs returns the number of observation points in the given mode.
func (a *Arch) NumObs(compacted bool) int {
	if compacted {
		return len(a.n.POs) + a.Channels*a.ChainLen
	}
	return len(a.n.POs) + len(a.n.FFs)
}

// ObsOfFF returns the observation index that exposes flop ffIdx in the
// given mode.
func (a *Arch) ObsOfFF(ffIdx int, compacted bool) int {
	if compacted {
		ch := a.ChannelOf(int(a.chainOf[ffIdx]))
		return len(a.n.POs) + ch*a.ChainLen + int(a.posOf[ffIdx])
	}
	return len(a.n.POs) + ffIdx
}

// ObsOfPO returns the observation index of the i-th primary output.
func (a *Arch) ObsOfPO(poIdx int) int { return poIdx }

// ObsOfGate returns the observation index that exposes an observation
// gate (a PO or flop gate ID) in the given mode, or -1 for any other gate.
func (a *Arch) ObsOfGate(gate int, compacted bool) int {
	o := int(a.obsOf[gate])
	if !compacted || o < len(a.n.POs) {
		return o
	}
	return a.ObsOfFF(o-len(a.n.POs), true)
}

// ObsGates returns the gate IDs whose captured values feed observation obs:
// a single PO gate, a single flop (uncompacted), or every flop XOR-ed into
// a compacted channel position. These are the paper's Topnode anchors for
// a failing response.
func (a *Arch) ObsGates(obs int, compacted bool) []int {
	if obs < len(a.n.POs) {
		return []int{a.n.POs[obs]}
	}
	if !compacted {
		return []int{a.n.FFs[obs-len(a.n.POs)]}
	}
	rel := obs - len(a.n.POs)
	ch, pos := rel/a.ChainLen, rel%a.ChainLen
	var gates []int
	for c := ch * a.Ratio; c < (ch+1)*a.Ratio && c < len(a.Chains); c++ {
		if pos < len(a.Chains[c]) {
			gates = append(gates, a.Chains[c][pos])
		}
	}
	return gates
}

// CaptureGate returns the gate whose V2 value a flop or PO captures: the
// flop's data source, or the PO's driver. Observation values are always V2
// values of capture gates.
func (a *Arch) CaptureGate(obsGate int) int {
	return a.n.Gates[obsGate].Fanin[0]
}

// Failure is one failing (pattern, observation) bit on the tester.
type Failure struct {
	Pattern int32
	Obs     int32
}

// FailuresFromDiff folds gate-level response differences into failing
// observations, sorted by (pattern, observation). diff maps an observation
// gate (PO or FF gate ID) to its bit-parallel good-vs-faulty V2 difference
// at the capture point; absent gates are identical. In compacted mode an
// even number of flipped cells in the same channel position aliases to a
// passing response, exactly like a real XOR compactor.
func (a *Arch) FailuresFromDiff(diff map[int][]uint64, patterns int, compacted bool) []Failure {
	words := (patterns + 63) / 64
	tail := sim.TailMask(patterns)
	var fails []Failure

	emit := func(obs int, mask []uint64) {
		for w := 0; w < words; w++ {
			m := mask[w]
			if w == words-1 {
				m &= tail
			}
			for ; m != 0; m &= m - 1 {
				k := w*64 + trailingZeros(m)
				fails = append(fails, Failure{Pattern: int32(k), Obs: int32(obs)})
			}
		}
	}

	for i, po := range a.n.POs {
		if d, ok := diff[po]; ok {
			emit(a.ObsOfPO(i), d)
		}
	}
	if !compacted {
		for i, ff := range a.n.FFs {
			if d, ok := diff[ff]; ok {
				emit(a.ObsOfFF(i, false), d)
			}
		}
		sortFailures(fails)
		return fails
	}
	// Compacted: XOR cell diffs per (channel, position).
	acc := make(map[int][]uint64)
	for i, ff := range a.n.FFs {
		d, ok := diff[ff]
		if !ok {
			continue
		}
		obs := a.ObsOfFF(i, true)
		m, ok := acc[obs]
		if !ok {
			m = make([]uint64, words)
			acc[obs] = m
		}
		for w := range m {
			m[w] ^= d[w]
		}
	}
	for obs, m := range acc {
		emit(obs, m)
	}
	sortFailures(fails)
	return fails
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

func sortFailures(fails []Failure) {
	sort.Slice(fails, func(i, j int) bool {
		if fails[i].Pattern != fails[j].Pattern {
			return fails[i].Pattern < fails[j].Pattern
		}
		return fails[i].Obs < fails[j].Obs
	})
}
