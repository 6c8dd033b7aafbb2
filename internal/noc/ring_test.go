package noc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nocmem/internal/snapshot"
)

// checkDerived verifies the router's derived state against the authoritative
// state it mirrors, recomputing every piece from the rings, inFlags, the
// per-VC pipeline fields, the output VCs, the injection slots and the ejection
// lock: ring cursors in range; occ/full/cnt/buffered consistent; routed,
// vaDone and ejecting equal to the inFlags bits and out ports; the output-side
// index (outBusy, outHolder) equal to outOwner and the holders' out port/VC;
// saOK equal to "has a credit" or "ejection port free or its own"; injBusy
// equal to the injection slots; and the selection state (high bit, key, SA
// deadline) equal to what the front flit says.
func (r *router) checkDerived() error {
	var occ, full, routed, vaDone, ejecting, saOK, outBusy, injBusy uint64
	buffered, ejHolders := 0, 0
	holder := make([]int8, r.nv())
	for slot := range holder {
		holder[slot] = -1
		if r.outOwner[slot] != nil {
			outBusy |= 1 << uint(slot)
		}
	}
	for vc := range r.inj {
		if r.inj[vc].pkt != nil {
			injBusy |= 1 << uint(vc)
		}
	}
	for i := 0; i < r.nv(); i++ {
		bit := uint64(1) << uint(i)
		n := int(r.cnt[i])
		if n > r.depth || int(r.head[i]) >= r.depth {
			return fmt.Errorf("router %d vc %d: ring cursors head=%d cnt=%d outside depth %d", r.id, i, r.head[i], n, r.depth)
		}
		buffered += n
		if r.inFlags[i]&vcRouted != 0 {
			routed |= bit
		}
		var f *flit
		if n > 0 {
			occ |= bit
			if n == r.depth {
				full |= bit
			}
			if f = r.flitAt(i, 0); f != r.front(i) {
				return fmt.Errorf("router %d vc %d: front and flitAt(0) disagree", r.id, i)
			}
			high := f.pkt.Priority == High
			if got := r.high&bit != 0; got != high {
				return fmt.Errorf("router %d vc %d: high bit %v, front packet high %v", r.id, i, got, high)
			}
			if want := r.arb.key(high, r.inAge[i]-f.routerEntry, f.pkt, i); r.sel[i].key != want {
				return fmt.Errorf("router %d vc %d: key %+v, front flit says %+v", r.id, i, r.sel[i].key, want)
			}
		}
		if r.inFlags[i]&vcVADone == 0 {
			continue
		}
		vaDone |= bit
		if f != nil {
			want := f.routerEntry + r.bodyWait
			if f.header() {
				want = r.inSAAt[i]
			}
			if r.sel[i].saAt != want {
				return fmt.Errorf("router %d vc %d: SA deadline %d, pipeline state says %d", r.id, i, r.sel[i].saAt, want)
			}
		}
		if p := int(r.inOutPort[i]); p != PortLocal {
			slot := r.vci(p, int(r.inOutVC[i]))
			if holder[slot] >= 0 || r.outOwner[slot] == nil {
				return fmt.Errorf("router %d vc %d: output VC %d held twice or unowned", r.id, i, slot)
			}
			holder[slot] = int8(i)
			if r.outCredits[slot] > 0 {
				saOK |= bit
			}
			continue
		}
		ejecting |= bit
		// The ejection lock belongs to the VC whose header has left; the
		// packet's other flits are behind it or still upstream.
		own := f == nil || !f.header()
		if own {
			ejHolders++
			if f != nil && f.pkt != r.ejPkt {
				return fmt.Errorf("router %d vc %d: mid-ejection with packet %d, lock held by %v", r.id, i, f.pkt.ID, r.ejPkt)
			}
		}
		if r.ejPkt == nil || own {
			saOK |= bit
		}
	}
	if locked := r.ejPkt != nil; ejHolders > 1 || (ejHolders == 1) != locked {
		return fmt.Errorf("router %d: ejection lock taken is %v, %d VCs mid-ejection", r.id, locked, ejHolders)
	}
	for slot := range holder {
		if r.outHolder[slot] != holder[slot] {
			return fmt.Errorf("router %d: output VC %d held by input VC %d, pipeline state says %d", r.id, slot, r.outHolder[slot], holder[slot])
		}
	}
	switch {
	case occ != r.occ:
		return fmt.Errorf("router %d: occ %#x, rings say %#x", r.id, r.occ, occ)
	case full != r.full:
		return fmt.Errorf("router %d: full %#x, rings say %#x", r.id, r.full, full)
	case routed != r.routed:
		return fmt.Errorf("router %d: routed %#x, inFlags say %#x", r.id, r.routed, routed)
	case vaDone != r.vaDone:
		return fmt.Errorf("router %d: vaDone %#x, inFlags say %#x", r.id, r.vaDone, vaDone)
	case ejecting != r.ejecting:
		return fmt.Errorf("router %d: ejecting %#x, out ports say %#x", r.id, r.ejecting, ejecting)
	case saOK != r.saOK:
		return fmt.Errorf("router %d: saOK %#x, credits and the ejection lock say %#x", r.id, r.saOK, saOK)
	case outBusy != r.outBusy:
		return fmt.Errorf("router %d: outBusy %#x, outOwner says %#x", r.id, r.outBusy, outBusy)
	case injBusy != r.injBusy:
		return fmt.Errorf("router %d: injBusy %#x, injection slots say %#x", r.id, r.injBusy, injBusy)
	case buffered != r.buffered:
		return fmt.Errorf("router %d: buffered %d, rings hold %d", r.id, r.buffered, buffered)
	}
	return nil
}

func checkAllDerived(t *testing.T, n *Network, now int64) {
	t.Helper()
	for i := range n.routers {
		if err := n.routers[i].checkDerived(); err != nil {
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
	for ri := range n.routers {
		r := &n.routers[ri]
		for i := 0; i < r.nv(); i++ {
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
	for ri := range fresh.routers {
		fr := &fresh.routers[ri]
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

// TestRestoreRebuildsUnreadableState checkpoints a loaded mesh at a cycle
// where two pieces of derived state cannot be read off a front flit: a router
// whose ejection lock is held by an empty VC (the header has left, the rest
// of the packet is still upstream) and an empty mid-packet VC serving a
// high-priority packet. The restored network must carry consistent derived
// state and drain exactly as the original does.
func TestRestoreRebuildsUnreadableState(t *testing.T) {
	type delivery struct {
		id uint64
		at int64
	}
	record := func(n *Network, out *[]delivery) {
		for d := 0; d < n.Nodes(); d++ {
			n.SetSink(d, func(p *Packet, at int64) { *out = append(*out, delivery{p.ID, at}) })
		}
	}
	n := newTestNet(t, 4, 4, testCfg())
	var want []delivery
	record(n, &want)
	emptyLockHolder := func() bool {
		for i := range n.routers {
			if r := &n.routers[i]; r.ejPkt != nil && r.ejecting&^r.occ != 0 {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(9))
	now := int64(0)
	for ; now < 500 || !emptyLockHolder() || n.DebugDrainedHighVCs() == 0; now++ {
		if now == 20_000 {
			t.Fatal("no cycle with an empty lock-holding VC and a drained high-priority VC")
		}
		p := &Packet{Src: rng.Intn(16), Dst: 5 * rng.Intn(4), NumFlits: 1 + rng.Intn(5), VNet: VNet(rng.Intn(2))}
		if rng.Intn(3) == 0 {
			p.Priority = High
		}
		if err := n.Inject(p, now); err != nil {
			t.Fatal(err)
		}
		n.Tick(now)
	}

	pkts := []*Packet{nil}
	snap := encodeNet(t, n, &pkts)
	fresh := newTestNet(t, 4, 4, n.cfg)
	var got []delivery
	record(fresh, &got)
	rd, err := snapshot.NewReaderBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The two networks run on: each needs its own packets.
	copies := make([]*Packet, len(pkts))
	fresh.DecodeState(rd, func() *Packet {
		i := rd.Int()
		if copies[i] == nil && pkts[i] != nil {
			cp := *pkts[i]
			copies[i] = &cp
		}
		return copies[i]
	})
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	checkAllDerived(t, fresh, now)

	want = want[:0]
	for end := now + 5_000; now < end; now++ {
		n.Tick(now)
		fresh.Tick(now)
		checkAllDerived(t, fresh, now)
	}
	if err := fresh.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("the restored network delivered %d packets, the original %d, or at other cycles", len(got), len(want))
	}
}
