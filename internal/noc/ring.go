package noc

// ring is a fixed-capacity FIFO: a window of n entries starting at head in a
// buffer carved out of a network-wide slab at New, wrapping at its end. The
// links (router.arr) and credit returns (router.cr) are rings sized by the
// credit bound — a flit on a link or a credit on its way back holds one of the
// VCsPerPort*BufferDepth slots of its link, so neither ever fills — and
// therefore never grow or move memory.
type ring[T any] struct {
	buf     []T
	head, n int32
}

func (q *ring[T]) len() int { return int(q.n) }

// at returns the k-th entry from the front; k == len() names the slot the
// next push fills.
func (q *ring[T]) at(k int) *T {
	s := int(q.head) + k
	if s >= len(q.buf) {
		s -= len(q.buf)
	}
	return &q.buf[s]
}

// push appends v. A full ring means the credit protocol was violated. The
// panic carries a constant message so that push stays cheap enough to inline.
func (q *ring[T]) push(v T) {
	if int(q.n) == len(q.buf) {
		panic("noc: link ring overflows (credit protocol violated)")
	}
	*q.at(int(q.n)) = v
	q.n++
}

// pop drops the front entry.
func (q *ring[T]) pop() {
	if q.head++; int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// clear empties the ring; a refill starts from slot 0.
func (q *ring[T]) clear() { q.head, q.n = 0, 0 }
