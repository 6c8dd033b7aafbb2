package noc

import (
	"bytes"
	"fmt"
	"testing"

	"nocmem/internal/snapshot"
)

// checkDerived verifies the router's derived state against the authoritative
// state it mirrors: ring cursors in range, occ/cnt/buffered consistent, the
// routed/vaDone masks equal to the inFlags bits, and the front cache (kind,
// routerEntry, priority class) equal to what the front flit says.
func (r *router) checkDerived() error {
	var occ, routed, vaDone, header uint64
	buffered := 0
	for i := range r.cnt {
		bit := uint64(1) << uint(i)
		n := int(r.cnt[i])
		if n > r.depth || int(r.head[i]) >= r.depth {
			return fmt.Errorf("router %d vc %d: ring cursors head=%d cnt=%d outside depth %d", r.id, i, r.head[i], n, r.depth)
		}
		buffered += n
		if r.inFlags[i]&vcRouted != 0 {
			routed |= bit
		}
		if r.inFlags[i]&vcVADone != 0 {
			vaDone |= bit
		}
		if n == 0 {
			continue
		}
		occ |= bit
		f := r.flitAt(i, 0)
		if f != r.front(i) {
			return fmt.Errorf("router %d vc %d: front and flitAt(0) disagree", r.id, i)
		}
		if f.header() {
			header |= bit
		}
		if r.frontEntry[i] != f.routerEntry {
			return fmt.Errorf("router %d vc %d: frontEntry %d, front flit entered at %d", r.id, i, r.frontEntry[i], f.routerEntry)
		}
		if got, want := r.high&bit != 0, f.pkt.Priority == High; got != want {
			return fmt.Errorf("router %d vc %d: high bit %v, front packet high %v", r.id, i, got, want)
		}
	}
	switch {
	case occ != r.occ:
		return fmt.Errorf("router %d: occ %#x, rings say %#x", r.id, r.occ, occ)
	case routed != r.routed:
		return fmt.Errorf("router %d: routed %#x, inFlags say %#x", r.id, r.routed, routed)
	case vaDone != r.vaDone:
		return fmt.Errorf("router %d: vaDone %#x, inFlags say %#x", r.id, r.vaDone, vaDone)
	case header != r.frontIsHeader&occ:
		return fmt.Errorf("router %d: frontIsHeader %#x, front flits say %#x", r.id, r.frontIsHeader&occ, header)
	case buffered != r.buffered:
		return fmt.Errorf("router %d: buffered %d, rings hold %d", r.id, r.buffered, buffered)
	}
	return nil
}

func checkAllDerived(t *testing.T, n *Network, now int64) {
	t.Helper()
	for _, r := range n.routers {
		if err := r.checkDerived(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
}

// backpressured builds a 4x2 mesh with one VC per virtual network and a
// quarter-speed router in the middle of the 0 -> 3 path, and queues twelve
// 5-flit packets on that flow: the upstream rings fill to their depth and
// every one of them cycles through its slots several times.
func backpressured(t *testing.T, depth int, delivered *int) *Network {
	t.Helper()
	cfg := testCfg()
	cfg.VCsPerPort = 2
	cfg.BufferDepth = depth
	cfg.ClockDivisors = map[int]int{2: 4}
	n := newTestNet(t, 4, 2, cfg)
	n.SetSink(3, func(p *Packet, at int64) { *delivered++ })
	for i := 0; i < 12; i++ {
		if err := n.Inject(&Packet{Src: 0, Dst: 3, NumFlits: 5, VNet: VNetRequest}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// wrappedVC returns a router and input VC whose live window runs past the end
// of its ring, if there is one.
func wrappedVC(n *Network) (*router, int) {
	for _, r := range n.routers {
		for i := range r.cnt {
			if int(r.head[i])+int(r.cnt[i]) > r.depth {
				return r, i
			}
		}
	}
	return nil, 0
}

func TestRingWrapUnderBackpressure(t *testing.T) {
	for _, depth := range []int{1, 3, 16} {
		delivered := 0
		n := backpressured(t, depth, &delivered)
		full, wrapped := false, false
		now := int64(0)
		for ; now < 20_000 && delivered < 12; now++ {
			n.Tick(now)
			checkAllDerived(t, n, now)
			if int(n.routers[1].cnt[n.routers[1].vci(PortWest, 0)]) == depth {
				full = true
			}
			if r, _ := wrappedVC(n); r != nil {
				wrapped = true
			}
		}
		if delivered != 12 {
			t.Fatalf("depth %d: delivered %d of 12", depth, delivered)
		}
		if !full {
			t.Errorf("depth %d: the ring behind the slow router never filled; no back-pressure exercised", depth)
		}
		if depth > 1 && !wrapped {
			t.Errorf("depth %d: no ring ever wrapped", depth)
		}
		for k := int64(0); k < 10; k++ {
			n.Tick(now + k)
		}
		if err := n.Quiesce(); err != nil {
			t.Errorf("depth %d: %v", depth, err)
		}
	}
}

// encodeNet serializes n, interning packets by first appearance in pkts.
func encodeNet(t *testing.T, n *Network, pkts *[]*Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	n.EncodeState(w, func(p *Packet) {
		for i, q := range *pkts {
			if p == q {
				w.Int(i)
				return
			}
		}
		*pkts = append(*pkts, p)
		w.Int(len(*pkts) - 1)
	})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeStateWrappedRing pins the property that keeps checkpoints
// byte-stable across the ring layout: a FIFO encodes to the same bytes
// wherever its front happens to sit in the ring.
func TestEncodeStateWrappedRing(t *testing.T) {
	delivered := 0
	n := backpressured(t, 3, &delivered)
	var r *router
	var vc int
	for now := int64(0); r == nil || r.cnt[vc] < 2; now++ {
		if now == 5_000 {
			t.Fatal("no wrapped ring holding two flits within 5000 cycles")
		}
		n.Tick(now)
		r, vc = wrappedVC(n)
	}
	pkts := []*Packet{nil}
	wrappedBytes := encodeNet(t, n, &pkts)

	// Restoring refills every ring from slot 0.
	fresh := newTestNet(t, 4, 2, n.cfg)
	rd, err := snapshot.NewReaderBytes(wrappedBytes)
	if err != nil {
		t.Fatal(err)
	}
	fresh.DecodeState(rd, func() *Packet { return pkts[rd.Int()] })
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	for _, fr := range fresh.routers {
		for i := range fr.head {
			if fr.head[i] != 0 {
				t.Fatalf("restored router %d vc %d has head %d", fr.id, i, fr.head[i])
			}
		}
	}
	checkAllDerived(t, fresh, 0)
	if got := encodeNet(t, fresh, &pkts); !bytes.Equal(got, wrappedBytes) {
		t.Error("the unwrapped FIFOs encode differently from the wrapped ones")
	}
}
