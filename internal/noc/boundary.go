package noc

// boundaryItem is one unit of cross-shard hand-off produced by a router's
// dispatch: a flit arrival when f carries a packet, a credit return when f is
// the zero flit.
// port and vc address the destination router's input state; at is the cycle
// the item becomes visible there (arrivals land at now+div+1, credits at
// now+1, so an item queued during cycle c is never consumable before c+1 —
// draining at the end-of-cycle barrier is therefore equivalent to the
// sequential stepper's direct append).
type boundaryItem struct {
	f    flit
	port int
	vc   int
	at   int64
}

// edgeQueue is the SPSC queue for one directed cross-shard router adjacency:
// written only by the producing router's shard worker during the tick phase,
// drained only by the destination shard's worker after the barrier. Each
// directed mesh link has at most one queue, created in a fixed order (source
// router ascending, then port ascending) so every shard drains its incoming
// queues in the same deterministic sequence regardless of worker timing.
type edgeQueue struct {
	dst   int // destination router id
	items []boundaryItem
}

// push appends one item; producer side only.
func (q *edgeQueue) push(it boundaryItem) { q.items = append(q.items, it) }

// drainWake accumulates the earliest pending deadline for one sleeping
// destination router across a whole DrainShard pass (see netShard.drainMin).
type drainWake struct {
	dst int32
	at  int64
}
