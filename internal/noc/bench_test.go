package noc

import (
	"testing"

	"nocmem/internal/config"
)

// loadedMesh builds a 4x8 mesh under a steady synthetic offered load (each
// tile periodically sends a single-flit packet to the diagonally opposite
// tile), warms it until the pipelines are full and the queues and packet free
// list have grown, and returns the function that advances it one cycle.
func loadedMesh(tb testing.TB) (tick func()) {
	cfg := config.Baseline32()
	n, err := New(cfg.Mesh, cfg.NoC)
	if err != nil {
		tb.Fatal(err)
	}
	var pool PacketPool
	for i := 0; i < n.Nodes(); i++ {
		n.SetSink(i, func(p *Packet, at int64) { pool.Put(p) })
	}
	nodes := n.Nodes()
	var now int64
	tick = func() {
		for src := 0; src < nodes; src++ {
			if (now+int64(src))%16 != 0 {
				continue
			}
			dst := nodes - 1 - src
			if dst == src {
				dst = (src + 1) % nodes
			}
			p := pool.Get()
			p.Src, p.Dst, p.NumFlits = src, dst, 1
			p.VNet, p.Priority = VNetRequest, Normal
			if src%4 == 0 {
				p.NumFlits = 5 // occasional data-sized packet
				p.VNet = VNetResponse
			}
			if err := n.Inject(p, now); err != nil {
				tb.Fatal(err)
			}
		}
		n.Tick(now)
		now++
	}
	for now < 4_000 {
		tick()
	}
	return tick
}

// BenchmarkNetworkTick measures one op = one tick of the loaded 4x8 mesh.
func BenchmarkNetworkTick(b *testing.B) {
	tick := loadedMesh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}

// TestNetworkTickAllocs: flits are values in the routers' rings and packets
// come from a free list, so a steady-state tick must not allocate at all.
func TestNetworkTickAllocs(t *testing.T) {
	tick := loadedMesh(t)
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2_000; i++ {
			tick()
		}
	}); n != 0 {
		t.Errorf("2000 ticks of the loaded mesh allocated %.0f times, want 0", n)
	}
}
