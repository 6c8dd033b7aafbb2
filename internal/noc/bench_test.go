package noc

import (
	"testing"

	"nocmem/internal/config"
)

// BenchmarkNetworkTick measures one op = one tick of a loaded 4x8 mesh
// under a steady synthetic offered load (each tile periodically sends a
// single-flit packet to the diagonally opposite tile). Flits are values in
// the routers' rings and packets come from a free list, so steady state must
// hold allocs/op at 0.
func BenchmarkNetworkTick(b *testing.B) {
	cfg := config.Baseline32()
	n, err := New(cfg.Mesh, cfg.NoC)
	if err != nil {
		b.Fatal(err)
	}
	var pool PacketPool
	for i := 0; i < n.Nodes(); i++ {
		n.SetSink(i, func(p *Packet, at int64) { pool.Put(p) })
	}
	nodes := n.Nodes()
	inject := func(now int64) {
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
				b.Fatal(err)
			}
		}
	}
	var now int64
	for ; now < 4_000; now++ { // warm up: fill pipelines, grow queues and the packet free list
		inject(now)
		n.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject(now)
		n.Tick(now)
		now++
	}
}
