package netlist

import "testing"

// TestLevelQueueOrder pushes every gate of a chain-and-fanout netlist in
// reverse and pops them in non-decreasing level order; after an early exit
// Reset leaves the queue empty and ready for a seed at level 0.
func TestLevelQueueOrder(t *testing.T) {
	n := New("q")
	a := n.AddGate("a", Input)
	b := n.AddGate("b", Input)
	g1 := n.AddGate("g1", And, a, b)
	g2 := n.AddGate("g2", Not, g1)
	g3 := n.AddGate("g3", Or, g2, a)
	n.AddGate("po", Output, g3)
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	q := NewLevelQueue(n)
	for id := len(n.Gates) - 1; id >= 0; id-- {
		q.Push(int32(id))
	}
	last, popped := int32(-1), 0
	for !q.Empty() {
		l := n.Gates[q.PopMin()].Level
		if l < last {
			t.Fatalf("popped level %d after %d", l, last)
		}
		last = l
		popped++
	}
	if popped != len(n.Gates) {
		t.Fatalf("popped %d of %d gates", popped, len(n.Gates))
	}

	q.Push(int32(g3))
	q.Push(int32(g2))
	if got := q.PopMin(); got != int32(g2) {
		t.Fatalf("PopMin = %d, want g2 (%d)", got, g2)
	}
	q.Reset() // g3 left behind
	if !q.Empty() {
		t.Fatal("queue not empty after Reset")
	}
	q.Push(int32(a))
	if got := q.PopMin(); got != int32(a) || !q.Empty() {
		t.Fatalf("after Reset: PopMin = %d, empty %v", got, q.Empty())
	}
}
