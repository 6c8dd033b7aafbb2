package noc

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nocmem/internal/snapshot"
)

// loadedNet is a 4x4 mesh after 300 cycles of random traffic of both classes
// and priorities: VCs hold flits, links hold arrivals and credits are on
// their way back.
func loadedNet(t *testing.T) *Network {
	t.Helper()
	n := newTestNet(t, 4, 4, testCfg())
	rng := rand.New(rand.NewSource(3))
	for now := int64(0); now < 300; now++ {
		p := &Packet{Src: rng.Intn(16), Dst: rng.Intn(16), NumFlits: 1 + rng.Intn(5), VNet: VNet(rng.Intn(2))}
		if rng.Intn(3) == 0 {
			p.Priority = High
		}
		if err := n.Inject(p, now); err != nil {
			t.Fatal(err)
		}
		n.Tick(now)
	}
	return n
}

// decodeNetErr encodes n, restores the image into a fresh network of the
// same shape and returns the decode error. Each packet decodes to a copy.
func decodeNetErr(t *testing.T, n *Network) error {
	t.Helper()
	pkts := []*Packet{nil}
	img := encodeNet(t, n, &pkts)
	fresh := newTestNet(t, 4, 4, n.cfg)
	rd, err := snapshot.NewReaderBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	fresh.WalkState(snapshot.DecodeFrom(rd), func(p **Packet) {
		i := rd.Int()
		if rd.Err() != nil || pkts[i] == nil {
			*p = nil
			return
		}
		cp := *pkts[i]
		*p = &cp
	})
	return rd.Err()
}

// occupiedVC returns a router and the flat index of one of its VCs that
// holds flits.
func occupiedVC(t *testing.T, n *Network) (*router, int) {
	t.Helper()
	for ri := range n.routers {
		r := &n.routers[ri]
		for i := 0; i < r.nv(); i++ {
			if r.cnt[i] > 0 {
				return r, i
			}
		}
	}
	t.Fatal("no VC holds a flit")
	return nil, 0
}

// TestDecodeStateRejects breaks one field of a loaded network at a time: the
// encoder writes what it finds, and a decoding WalkState must refuse the image with a
// snapshot.ErrFormat that names the field.
func TestDecodeStateRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, n *Network)
		want   string
	}{
		{"vc_over_depth", func(t *testing.T, n *Network) {
			r := &n.routers[0]
			r.cnt[0] = uint8(r.depth + 1)
		}, "exceeds depth"},
		{"vc_wrong_class", func(t *testing.T, n *Network) {
			r, i := occupiedVC(t, n)
			f := r.flitAt(i, 0)
			cp := *f.pkt
			cp.VNet ^= 1
			f.pkt = &cp
		}, "of the other class"},
		{"flit_tail", func(t *testing.T, n *Network) {
			r, i := occupiedVC(t, n)
			f := r.flitAt(i, 0)
			f.tail = !f.tail
		}, "flit sequence state inconsistent"},
		{"out_port_range", func(t *testing.T, n *Network) {
			n.routers[0].inOutPort[0] = NumPorts
		}, "pipeline indices out of range"},
		{"out_vc_range", func(t *testing.T, n *Network) {
			r := &n.routers[0]
			r.inOutVC[0] = int32(r.vcs)
		}, "pipeline indices out of range"},
		{"routed_off_mesh", func(t *testing.T, n *Network) {
			r := &n.routers[0] // the corner: no west neighbor
			i := r.vci(PortLocal, 0)
			r.inFlags[i] = vcRouted | vcVADone
			r.inOutPort[i] = PortWest
		}, "toward a missing neighbor"},
		{"routed_without_header", func(t *testing.T, n *Network) {
			r := &n.routers[0]
			i := r.vci(PortWest, 0) // nothing arrives from off the mesh
			r.inFlags[i] = vcRouted
			r.inOutPort[i] = PortLocal
		}, "without a header at its front"},
		{"credit_count", func(t *testing.T, n *Network) {
			r := &n.routers[5]
			r.outCredits[r.vci(PortEast, 0)] = int32(r.depth + 1)
		}, "credit count"},
		{"arrivals_over_link", func(t *testing.T, n *Network) {
			r := &n.routers[5]
			r.arr[PortLocal] = ring[arrival]{buf: make([]arrival, 1)}
			r.arr[PortLocal].push(arrival{})
		}, "arrivals on a link"},
		{"arrival_vc", func(t *testing.T, n *Network) {
			r, i := occupiedVC(t, n)
			for p := 0; p < NumPorts; p++ {
				if q := &r.arr[p]; q.len() < len(q.buf) {
					q.push(arrival{f: *r.flitAt(i, 0), vc: r.vcs, at: 1 << 40})
					return
				}
			}
			t.Fatal("no link with a free slot")
		}, "arrival vc"},
		{"credits_over_link", func(t *testing.T, n *Network) {
			r := &n.routers[5]
			r.cr = ring[creditMsg]{buf: make([]creditMsg, len(r.cr.buf)+1)}
			for r.cr.len() < len(r.cr.buf) {
				r.cr.push(creditMsg{})
			}
		}, "credit returns"},
		{"credit_port", func(t *testing.T, n *Network) {
			r := &n.routers[5]
			r.pos = append(append([]vcPos(nil), r.pos...), vcPos{port: NumPorts})
			r.cr = ring[creditMsg]{buf: make([]creditMsg, 1)}
			r.cr.push(creditMsg{slot: len(r.pos) - 1})
		}, "credit indices out of range"},
		{"outbox_nil", func(t *testing.T, n *Network) {
			q := &n.routers[5].outbox[VNetRequest]
			q.q = append(q.q, nil)
		}, "nil packet in outbox"},
		{"injection_slots", func(t *testing.T, n *Network) {
			r := &n.routers[5]
			r.inj = append(r.inj, injSlot{})
		}, "injection slots"},
		{"injection_cursor", func(t *testing.T, n *Network) {
			r, i := occupiedVC(t, n)
			p := r.flitAt(i, 0).pkt
			n.routers[5].inj[0] = injSlot{pkt: p, next: p.NumFlits + 1}
		}, "injection cursor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := loadedNet(t)
			tc.damage(t, n)
			if err := decodeNetErr(t, n); !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}

// TestDecodePacketBodyRejects breaks one field of a packet at a time: a
// decoding WalkPacketBody must refuse it with a snapshot.ErrFormat.
func TestDecodePacketBodyRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(p *Packet)
		want   string
	}{
		{"destination", func(p *Packet) { p.Dst = 16 }, "noc: packet"},
		{"flits", func(p *Packet) { p.NumFlits = 0 }, "noc: packet"},
		{"priority", func(p *Packet) { p.Priority = High + 1 }, "invalid priority/hops/ejection state"},
		{"hops", func(p *Packet) { p.Hops = -1 }, "invalid priority/hops/ejection state"},
		{"ejected_flits", func(p *Packet) { p.ejectedFlits = p.NumFlits + 1 }, "invalid priority/hops/ejection state"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Packet{ID: 7, Src: 1, Dst: 2, NumFlits: 5, VNet: VNetResponse}
			tc.damage(p)
			img := encodeBytes(t, func(w *snapshot.Writer) { WalkPacketBody(snapshot.EncodeTo(w), p, 16, func(*any) {}) })
			rd, err := snapshot.NewReaderBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			WalkPacketBody(snapshot.DecodeFrom(rd), &Packet{}, 16, func(*any) {})
			if err := rd.Err(); !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}

// encodeBytes runs enc on a fresh snapshot stream and returns its bytes.
func encodeBytes(t *testing.T, enc func(*snapshot.Writer)) []byte {
	t.Helper()
	var buf strings.Builder
	w := snapshot.NewWriter(&buf)
	enc(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String())
}

// TestEncodeStateRefusesMidCycle: a boundary queue holding an undrained item
// means the network is between the tick and the drain of a cycle, which no
// image can describe.
func TestEncodeStateRefusesMidCycle(t *testing.T) {
	n := loadedNet(t)
	n.shards[0].edgesIn = append(n.shards[0].edgesIn, &edgeQueue{dst: 1, items: make([]boundaryItem, 1)})
	w := snapshot.NewWriter(&strings.Builder{})
	n.WalkState(snapshot.EncodeTo(w), func(**Packet) {})
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "mid-cycle") {
		t.Fatalf("encoding returned %v, want a mid-cycle error", err)
	}
}
