package netlist

// LevelQueue pops gates in topological-level order, the schedule of every
// event-driven evaluation over the netlist. Events travel forward through
// the combinational DAG, so a push lands at a level at or beyond the
// current pop level (a seed pushed before the first pop may land anywhere)
// and a bucket per level replaces a heap. The queue does not deduplicate:
// callers stamp the gates they have pushed.
type LevelQueue struct {
	level   []int32   // per gate
	buckets [][]int32 // by level
	touched []int32   // levels with leftover entries (for Reset)
	cur     int
	count   int
}

// NewLevelQueue returns an empty queue over the levelized netlist n.
func NewLevelQueue(n *Netlist) *LevelQueue {
	q := &LevelQueue{level: make([]int32, len(n.Gates))}
	maxLvl := int32(0)
	for _, g := range n.Gates {
		q.level[g.ID] = g.Level
		if g.Level > maxLvl {
			maxLvl = g.Level
		}
	}
	q.buckets = make([][]int32, maxLvl+1)
	return q
}

// Reset clears any entries left by an early-exited previous traversal.
func (q *LevelQueue) Reset() {
	for _, l := range q.touched {
		q.buckets[l] = q.buckets[l][:0]
	}
	q.touched = q.touched[:0]
	q.cur = 0
	q.count = 0
}

// Push queues gate id.
func (q *LevelQueue) Push(id int32) {
	l := q.level[id]
	if len(q.buckets[l]) == 0 {
		q.touched = append(q.touched, l)
	}
	q.buckets[l] = append(q.buckets[l], id)
	if int(l) < q.cur {
		q.cur = int(l)
	}
	q.count++
}

// Empty reports whether no gate is queued.
func (q *LevelQueue) Empty() bool { return q.count == 0 }

// PopMin removes and returns a queued gate of the lowest queued level.
func (q *LevelQueue) PopMin() int32 {
	for len(q.buckets[q.cur]) == 0 {
		q.cur++
	}
	b := q.buckets[q.cur]
	id := b[len(b)-1]
	q.buckets[q.cur] = b[:len(b)-1]
	q.count--
	return id
}
