package atpg

import (
	"sort"

	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// podem is a two-frame PODEM test generator for launch-on-capture TDF
// patterns. The sequential behaviour of LOC is modeled by unrolling two
// time frames: frame 1 (launch) evaluates the combinational logic on the
// scan-loaded flop state; frame 2 (capture) evaluates it again with each
// flop output taking the frame-1 value of its data pin. Decision variables
// are the primary inputs (static across both frames) and the frame-1 flop
// state. The fault effect exists only in frame 2, where the site holds its
// frame-1 value whenever the good machine makes the slow transition.
type podem struct {
	n             *netlist.Netlist
	order         []int
	maxBacktracks int

	piIdx map[int]int // PI gate -> index
	ffIdx map[int]int // DFF gate -> index
	piVal []byte      // 0, 1, or vX
	ffVal []byte

	f1 []byte // frame-1 values
	g2 []byte // frame-2 good values
	b2 []byte // frame-2 faulty values

	obsSrc []int // capture gates (fanin of POs and flops), deduped

	// Event-driven implication scratch: gates are evaluated in level
	// order; mark[g] == stamp deduplicates pushes within one pass.
	pos   []int32 // gate -> index in order
	queue *netlist.LevelQueue
	seeds []int32 // frame-2 seeds gathered by the frame-1 pass
	mark  []int32
	stamp int32
}

// Three-valued logic constants.
const (
	v0 byte = 0
	v1 byte = 1
	vX byte = 2
)

func newPodem(n *netlist.Netlist, maxBacktracks int) *podem {
	p := &podem{
		n:             n,
		order:         n.TopoOrder(),
		maxBacktracks: maxBacktracks,
		piIdx:         make(map[int]int, len(n.PIs)),
		ffIdx:         make(map[int]int, len(n.FFs)),
		piVal:         make([]byte, len(n.PIs)),
		ffVal:         make([]byte, len(n.FFs)),
		f1:            make([]byte, len(n.Gates)),
		g2:            make([]byte, len(n.Gates)),
		b2:            make([]byte, len(n.Gates)),
	}
	for i, id := range n.PIs {
		p.piIdx[id] = i
	}
	for i, id := range n.FFs {
		p.ffIdx[id] = i
	}
	seen := make(map[int]bool)
	for _, po := range n.POs {
		src := n.Gates[po].Fanin[0]
		if !seen[src] {
			seen[src] = true
			p.obsSrc = append(p.obsSrc, src)
		}
	}
	for _, ff := range n.FFs {
		src := n.Gates[ff].Fanin[0]
		if !seen[src] {
			seen[src] = true
			p.obsSrc = append(p.obsSrc, src)
		}
	}
	p.pos = make([]int32, len(n.Gates))
	for i, id := range p.order {
		p.pos[id] = int32(i)
	}
	p.queue = netlist.NewLevelQueue(n)
	p.mark = make([]int32, len(n.Gates))
	for i := range p.mark {
		p.mark[i] = -1
	}
	return p
}

// assign sets a decision variable (val 0, 1 or vX) and re-implies the three
// planes event-driven, in two level-ordered passes. The frame-1 pass
// re-evaluates f1 from the variable's gate forward, stopping at flop data
// pins. The frame-2 pass re-evaluates g2/b2 from three kinds of seed: the
// primary input itself (inputs drive both frames), every flop whose data
// pin changed in frame 1, and the fault gate when frame 1 changed at the
// value its slow-transition transform reads (applyTDF3's launch value).
// Each pass propagates only past gates whose value changed, so an
// implication costs what it changes; the result equals a full imply.
func (p *podem) assign(isPI bool, idx int, val byte, f faultsim.Fault) {
	n := p.n
	var root int
	if isPI {
		p.piVal[idx] = val
		root = n.PIs[idx]
	} else {
		p.ffVal[idx] = val
		root = n.FFs[idx]
	}
	launch := f.Gate
	if f.Pin != faultsim.OutputPin {
		launch = n.Gates[f.Gate].Fanin[f.Pin]
	}
	p.seeds = p.seeds[:0]
	if isPI {
		p.seeds = append(p.seeds, int32(root))
	}

	q := p.queue
	q.Reset()
	p.stamp++
	st := p.stamp
	p.mark[root] = st
	q.Push(int32(root))
	for !q.Empty() {
		id := int(q.PopMin())
		v := p.frame1(id)
		if v == p.f1[id] {
			continue
		}
		p.f1[id] = v
		if id == launch {
			p.seeds = append(p.seeds, int32(f.Gate))
		}
		for _, s := range n.Gates[id].Fanout {
			if n.Gates[s].Type == netlist.DFF {
				p.seeds = append(p.seeds, int32(s))
			} else if p.mark[s] != st {
				p.mark[s] = st
				q.Push(int32(s))
			}
		}
	}

	p.stamp++
	st = p.stamp
	for _, id := range p.seeds {
		if p.mark[id] != st {
			p.mark[id] = st
			q.Push(id)
		}
	}
	for !q.Empty() {
		id := int(q.PopMin())
		gv, bv := p.frame2(id, f)
		if gv == p.g2[id] && bv == p.b2[id] {
			continue
		}
		p.g2[id], p.b2[id] = gv, bv
		for _, s := range n.Gates[id].Fanout {
			if n.Gates[s].Type != netlist.DFF && p.mark[s] != st { // no third frame
				p.mark[s] = st
				q.Push(int32(s))
			}
		}
	}
}

// decision is one PODEM decision-stack entry.
type decision struct {
	isPI    bool
	idx     int
	val     byte
	flipped bool
}

// generate searches for a single LOC pattern detecting the fault. It
// returns (pattern, true) on success. Implication is a full three-plane
// evaluation once per target, then one event-driven assign per decision.
func (p *podem) generate(f faultsim.Fault) (*sim.PatternSet, bool) {
	for i := range p.piVal {
		p.piVal[i] = vX
	}
	for i := range p.ffVal {
		p.ffVal[i] = vX
	}
	site := f.SiteGate(p.n)
	want1 := v0 // launch value required at the site
	if f.Pol == faultsim.SlowToFall {
		want1 = v1
	}
	want2 := v1 - want1 // capture value completing the transition

	p.imply(f)
	siteCone := p.siteCone(f)

	// Bound total work per fault: assignments and backtracks both trigger
	// one implication.
	implications := 0
	maxImplications := 10 * p.maxBacktracks
	var stack []decision
	backtracks := 0

	for {
		implications++
		if implications > maxImplications {
			return nil, false
		}
		if p.detected(f) {
			return p.pattern(), true
		}
		objGate, objVal, objFrame, ok := p.objective(f, site, want1, want2, siteCone)
		if ok {
			varIsPI, idx, val, traced := p.backtrace(objGate, objVal, objFrame)
			if traced {
				stack = append(stack, decision{isPI: varIsPI, idx: idx, val: val})
				p.assign(varIsPI, idx, val, f)
				continue
			}
		}
		// Conflict or no backtraceable objective: backtrack.
		for {
			if len(stack) == 0 {
				return nil, false
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = 1 - top.val
				p.assign(top.isPI, top.idx, top.val, f)
				backtracks++
				if backtracks > p.maxBacktracks {
					return nil, false
				}
				break
			}
			p.assign(top.isPI, top.idx, vX, f)
			stack = stack[:len(stack)-1]
		}
	}
}

// siteCone returns the topologically sorted frame-2 combinational fan-out
// cone of the fault gate: the only gates whose faulty value can differ
// from the good one, and so the only place the D-frontier can be.
func (p *podem) siteCone(f faultsim.Fault) []int32 {
	n := p.n
	p.stamp++
	st := p.stamp
	var cone []int32
	stack := []int32{int32(f.Gate)}
	p.mark[f.Gate] = st
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cone = append(cone, id)
		for _, s := range n.Gates[id].Fanout {
			if p.mark[s] != st && n.Gates[s].Type != netlist.DFF {
				p.mark[s] = st
				stack = append(stack, int32(s))
			}
		}
	}
	sort.Slice(cone, func(i, j int) bool { return p.pos[cone[i]] < p.pos[cone[j]] })
	return cone
}

// pattern converts the current assignment (X bits filled with 0) into a
// single-pattern set.
func (p *podem) pattern() *sim.PatternSet {
	ps := sim.NewPatternSet(p.n, 1)
	for i, v := range p.piVal {
		sim.SetBit(ps.PI[i], 0, v == v1)
	}
	for i, v := range p.ffVal {
		sim.SetBit(ps.FF[i], 0, v == v1)
	}
	return ps
}

// imply performs full three-valued evaluation of both frames and the
// faulty frame-2 machine. It is the oracle assign's event-driven passes
// must reproduce.
func (p *podem) imply(f faultsim.Fault) {
	for _, id := range p.order {
		p.f1[id] = p.frame1(id)
	}
	for _, id := range p.order {
		p.g2[id], p.b2[id] = p.frame2(id, f)
	}
}

// frame1 evaluates gate id's launch-frame value from its fanin in f1.
func (p *podem) frame1(id int) byte {
	g := p.n.Gates[id]
	switch g.Type {
	case netlist.Input:
		return p.piVal[p.piIdx[id]]
	case netlist.DFF:
		return p.ffVal[p.ffIdx[id]]
	}
	return eval3(g, p.f1, -1, vX)
}

// frame2 evaluates gate id's capture-frame good and faulty values from its
// fanin in g2 and b2. A flop captures its frame-1 data pin; the fault
// transforms the faulty value at its site, reading the launch value in f1.
func (p *podem) frame2(id int, f faultsim.Fault) (good, bad byte) {
	g := p.n.Gates[id]
	switch g.Type {
	case netlist.Input:
		good = p.piVal[p.piIdx[id]]
		bad = good
	case netlist.DFF:
		good = p.f1[g.Fanin[0]]
		bad = good
	default:
		good = eval3(g, p.g2, -1, vX)
		if f.Pin != faultsim.OutputPin && f.Gate == id {
			// Input-pin fault on this gate: perturb that branch only.
			src := g.Fanin[f.Pin]
			bad = eval3(g, p.b2, f.Pin, applyTDF3(f.Pol, p.f1[src], p.b2[src]))
		} else {
			bad = eval3(g, p.b2, -1, vX)
		}
	}
	if f.Pin == faultsim.OutputPin && f.Gate == id {
		bad = applyTDF3(f.Pol, p.f1[id], bad)
	}
	return good, bad
}

// applyTDF3 is the three-valued slow-transition transform: where the launch
// value and arriving capture value are known and form the slow edge, the
// stale launch value persists; any X stays X.
func applyTDF3(pol faultsim.Polarity, launch, capture byte) byte {
	if launch == vX || capture == vX {
		return vX
	}
	if pol == faultsim.SlowToRise && launch == v0 && capture == v1 {
		return v0
	}
	if pol == faultsim.SlowToFall && launch == v1 && capture == v0 {
		return v1
	}
	return capture
}

// eval3 evaluates gate g on the three-valued plane vals; if overridePin is
// >= 0 that input takes overrideVal instead of its source value.
func eval3(g *netlist.Gate, vals []byte, overridePin int, overrideVal byte) byte {
	in := func(pin int) byte {
		if pin == overridePin {
			return overrideVal
		}
		return vals[g.Fanin[pin]]
	}
	switch g.Type {
	case netlist.Buf, netlist.Output:
		return in(0)
	case netlist.Not:
		return not3(in(0))
	case netlist.And, netlist.Nand:
		v := v1
		for pin := range g.Fanin {
			v = and3(v, in(pin))
		}
		if g.Type == netlist.Nand {
			v = not3(v)
		}
		return v
	case netlist.Or, netlist.Nor:
		v := v0
		for pin := range g.Fanin {
			v = or3(v, in(pin))
		}
		if g.Type == netlist.Nor {
			v = not3(v)
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := v0
		for pin := range g.Fanin {
			v = xor3(v, in(pin))
		}
		if g.Type == netlist.Xnor {
			v = not3(v)
		}
		return v
	case netlist.Mux:
		sel, a, b := in(0), in(1), in(2)
		switch sel {
		case v0:
			return a
		case v1:
			return b
		default:
			if a == b && a != vX {
				return a
			}
			return vX
		}
	}
	return vX
}

func not3(a byte) byte {
	if a == vX {
		return vX
	}
	return 1 - a
}
func and3(a, b byte) byte {
	if a == v0 || b == v0 {
		return v0
	}
	if a == vX || b == vX {
		return vX
	}
	return v1
}
func or3(a, b byte) byte {
	if a == v1 || b == v1 {
		return v1
	}
	if a == vX || b == vX {
		return vX
	}
	return v0
}
func xor3(a, b byte) byte {
	if a == vX || b == vX {
		return vX
	}
	return a ^ b
}

// detected reports whether any observation capture gate holds a definite
// good/faulty difference in frame 2. A fault on a flop's own data pin is
// observed at that flop directly: the captured value differs whenever the
// slow transition is exercised at the pin.
func (p *podem) detected(f faultsim.Fault) bool {
	for _, src := range p.obsSrc {
		if p.g2[src] != vX && p.b2[src] != vX && p.g2[src] != p.b2[src] {
			return true
		}
	}
	if f.Pin != faultsim.OutputPin {
		g := p.n.Gates[f.Gate]
		if g.Type == netlist.DFF {
			src := g.Fanin[0]
			captured := applyTDF3(f.Pol, p.f1[src], p.b2[src])
			if captured != vX && p.g2[src] != vX && captured != p.g2[src] {
				return true
			}
		}
	}
	return false
}

// objective returns the next PODEM objective: activate the launch value,
// then the capture transition, then advance the D-frontier. ok=false means
// the current assignment cannot detect the fault (conflict). The frontier
// is the first gate in topological order with a D input and an X input; a
// D can only sit on the fault's frame-2 cone (siteCone, topologically
// sorted) or on the fault's own input pin, so scanning the cone finds the
// same gate as scanning the whole order.
func (p *podem) objective(f faultsim.Fault, site int, want1, want2 byte, siteCone []int32) (gate int, val byte, frame int, ok bool) {
	switch p.f1[site] {
	case vX:
		return site, want1, 1, true
	case want1:
	default:
		return 0, 0, 0, false // activation contradicted
	}
	// For input-pin faults the transition is still on the site signal.
	switch p.g2[site] {
	case vX:
		return site, want2, 2, true
	case want2:
	default:
		return 0, 0, 0, false
	}
	// Site is activated: advance the D-frontier in frame 2.
	for _, id32 := range siteCone {
		id := int(id32)
		g := p.n.Gates[id]
		if g.Type.IsSource() || g.Type == netlist.Output {
			continue
		}
		if p.g2[id] != vX || p.b2[id] != vX {
			// Output already resolved on at least one plane; frontier
			// gates have unknown outputs on both planes.
			if !(p.g2[id] == vX && p.b2[id] == vX) {
				continue
			}
		}
		hasD, xPin := false, -1
		for pin, src := range g.Fanin {
			gv, bv := p.g2[src], p.b2[src]
			if f.Pin == pin && f.Gate == id {
				bv = applyTDF3(f.Pol, p.f1[src], bv)
			}
			if gv != vX && bv != vX && gv != bv {
				hasD = true
			} else if gv == vX {
				xPin = pin
			}
		}
		if hasD && xPin >= 0 {
			return g.Fanin[xPin], nonControlling(g.Type), 2, true
		}
	}
	return 0, 0, 0, false
}

// nonControlling returns the input value that lets a fault effect pass
// through the gate type.
func nonControlling(t netlist.GateType) byte {
	switch t {
	case netlist.And, netlist.Nand:
		return v1
	case netlist.Or, netlist.Nor:
		return v0
	default:
		return v0 // XOR-family and MUX: any definite value propagates
	}
}

// backtrace walks an objective back to an unassigned decision variable.
// frame 2 traversal crosses flop outputs into frame 1.
func (p *podem) backtrace(gate int, val byte, frame int) (isPI bool, idx int, out byte, ok bool) {
	n := p.n
	for steps := 0; steps < 4*len(n.Gates); steps++ {
		g := n.Gates[gate]
		vals := p.f1
		if frame == 2 {
			vals = p.g2
		}
		switch g.Type {
		case netlist.Input:
			i := p.piIdx[gate]
			if p.piVal[i] != vX {
				return false, 0, 0, false
			}
			return true, i, val, true
		case netlist.DFF:
			if frame == 2 {
				frame = 1
				gate = g.Fanin[0]
				continue
			}
			i := p.ffIdx[gate]
			if p.ffVal[i] != vX {
				return false, 0, 0, false
			}
			return false, i, val, true
		case netlist.Buf, netlist.Output:
			gate = g.Fanin[0]
		case netlist.Not:
			val = 1 - val
			gate = g.Fanin[0]
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			inv := g.Type == netlist.Nand || g.Type == netlist.Nor
			need := val
			if inv {
				need = 1 - need
			}
			// need==1 on an AND (all non-controlling) or need==0 on an OR:
			// set every X input; pick the first. Otherwise one controlling
			// input suffices; pick the first X input. Either way that input
			// takes the needed value.
			pin := firstXPin(g, vals)
			if pin < 0 {
				return false, 0, 0, false
			}
			gate = g.Fanin[pin]
			val = need
		case netlist.Xor, netlist.Xnor:
			// Parity: pick an X input and solve for it given known inputs.
			parity := val
			if g.Type == netlist.Xnor {
				parity = 1 - parity
			}
			pin := -1
			for i, src := range g.Fanin {
				v := vals[src]
				if v == vX {
					if pin < 0 {
						pin = i
					}
				} else {
					parity ^= v
				}
			}
			if pin < 0 {
				return false, 0, 0, false
			}
			gate = g.Fanin[pin]
			val = parity
		case netlist.Mux:
			sel := vals[g.Fanin[0]]
			switch sel {
			case v0:
				gate = g.Fanin[1]
			case v1:
				gate = g.Fanin[2]
			default:
				gate = g.Fanin[0]
				val = v0
			}
		default:
			return false, 0, 0, false
		}
	}
	return false, 0, 0, false
}

func firstXPin(g *netlist.Gate, vals []byte) int {
	for pin, src := range g.Fanin {
		if vals[src] == vX {
			return pin
		}
	}
	return -1
}
