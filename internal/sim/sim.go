package sim

import (
	"fmt"

	"nocmem/internal/bitset"
	"nocmem/internal/cache"
	"nocmem/internal/config"
	"nocmem/internal/core"
	"nocmem/internal/cpu"
	"nocmem/internal/dram"
	"nocmem/internal/noc"
	"nocmem/internal/stats"
	"nocmem/internal/timerwheel"
	"nocmem/internal/trace"
)

// Simulator is one fully-wired instance of the target system.
type Simulator struct {
	cfg  config.Config
	apps []trace.Profile

	net     *noc.Network
	pol     *core.Policy
	nodes   []*node
	mcs     []*mcNode
	mcAt    []*mcNode // tile -> hosted controller; nil on non-MC tiles
	mcTiles []int     // cfg.MCNodes(), cached: the accessor builds a fresh slice

	amap  dram.AddrMap
	snuca cache.SNUCA

	now int64

	// shards partition the tiles into contiguous cost-balanced chunks for
	// stepping (shard.go, partition.go), one per worker goroutine; always at
	// least one. The scheduler state (active sets, wake wheels), measurement
	// collectors and object pools live on the shards so worker goroutines
	// never contend. Run.Shards <= 1 keeps the single sequential shard.
	shards []*simShard

	// Event-driven scheduler state (see sched.go): dense selects the
	// reference stepper instead, polNext is the next cycle the policy has
	// work, and ticked counts executed (not fast-forwarded) cycles.
	dense   bool
	polNext int64
	ticked  int64

	// par coordinates the parallel shard workers of one Step call.
	par stepPar

	idleSeries []*stats.Series
}

// New builds a simulator running the built-in synthetic applications. apps
// assigns one application per tile in order; a zero-value profile (empty
// name) leaves the tile's core idle, which is how alone runs are expressed.
func New(cfg config.Config, apps []trace.Profile) (*Simulator, error) {
	return newSynthetic(cfg, apps, true)
}

// newSynthetic is New with the choice a Restore makes: see newFromSources.
func newSynthetic(cfg config.Config, apps []trace.Profile, prewarm bool) (*Simulator, error) {
	if len(apps) != cfg.Mesh.Nodes() {
		return nil, fmt.Errorf("sim: %d applications for %d tiles", len(apps), cfg.Mesh.Nodes())
	}
	srcs := make([]trace.AppSource, len(apps))
	for i, a := range apps {
		if a.Name == "" {
			continue
		}
		gen, err := trace.NewGenerator(a, i, cfg.L1.LineBytes, cfg.Run.Seed)
		if err != nil {
			return nil, err
		}
		srcs[i] = gen
	}
	return newFromSources(cfg, srcs, apps, prewarm)
}

// NewFromSources builds a simulator over explicit instruction sources (e.g.
// recorded trace files); nil sources leave tiles idle. apps carries the
// per-tile metadata (name for reporting, MPKI for the application-aware
// baseline) and may hold zero values when unknown.
func NewFromSources(cfg config.Config, srcs []trace.AppSource, apps []trace.Profile) (*Simulator, error) {
	return newFromSources(cfg, srcs, apps, true)
}

// newFromSources wires the machine. prewarm installs the applications'
// resident working sets, which is how a run from cycle 0 starts; a Restore
// passes false and builds the caches and directories empty, because the image
// replaces every one of them (see Restore).
func newFromSources(cfg config.Config, srcs []trace.AppSource, apps []trace.Profile, prewarm bool) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := cfg.Mesh.Nodes()
	if len(srcs) != nodes || len(apps) != nodes {
		return nil, fmt.Errorf("sim: %d sources / %d app entries for %d tiles", len(srcs), len(apps), nodes)
	}
	for i, src := range srcs {
		if (src == nil) != (apps[i].Name == "") {
			return nil, fmt.Errorf("sim: tile %d source/metadata mismatch", i)
		}
	}
	net, err := noc.New(cfg.Mesh, cfg.NoC)
	if err != nil {
		return nil, err
	}
	amap, err := dram.NewAddrMap(cfg.L2.LineBytes, cfg.DRAM.Controllers, cfg.DRAM.BanksPerCtl,
		cfg.DRAM.RowBytes, cfg.DRAM.BankInterleaveLines)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:   cfg,
		apps:  apps,
		net:   net,
		pol:   core.NewPolicy(cfg),
		amap:  amap,
		snuca: cache.NewSNUCA(nodes, cfg.L2.LineBytes),
		mcAt:  make([]*mcNode, nodes),
	}
	s.nodes = make([]*node, nodes)
	for i := range s.nodes {
		n := newNode(i, s)
		s.nodes[i] = n
		net.SetSink(i, n.deliver)
		if srcs[i] != nil {
			n.core = cpu.New(i, cfg.CPU, srcs[i], n.issue)
		}
	}
	if prewarm {
		for i, src := range srcs {
			if src != nil {
				s.prewarm(src, s.nodes[i])
			}
		}
		// Every application's warm lines land in shared banks: zero the
		// banks' counters once, after the last one.
		for _, nd := range s.nodes {
			nd.l2.ResetStats()
		}
	}
	if cfg.AppAwareNet || cfg.DRAM.Sched == config.AppAwareMem {
		mpki := make([]float64, nodes)
		active := make([]bool, nodes)
		for i, a := range apps {
			mpki[i] = a.MPKI
			active[i] = a.Name != ""
		}
		s.pol.App = core.NewAppAware(mpki, active)
	}
	s.mcTiles = cfg.MCNodes()
	for ctlIdx, tile := range s.mcTiles {
		mc := newMCNode(tile, ctlIdx, s)
		series := stats.NewSeries(10_000)
		mc.ctl.SetIdleSeries(func(cycle int64, avg float64) { series.Add(cycle, avg) })
		s.idleSeries = append(s.idleSeries, series)
		s.mcs = append(s.mcs, mc)
		s.mcAt[tile] = mc
	}
	s.buildShards()
	s.SetDenseStepping(false)
	return s, nil
}

// buildShards derives the stepping layout from Run.Shards, once, at
// construction: the tiles split into one contiguous chunk per worker,
// balancing the static per-tile cost model (config.Validate bounds Run.Shards
// by the tile count). The partition is mirrored onto the network, and every
// node and memory controller is handed its owning chunk.
func (s *Simulator) buildShards() {
	nodes := len(s.nodes)
	ends := linearPartition(s.staticCosts(), max(s.cfg.Run.Shards, 1))
	shardOf := make([]int, nodes)
	start := 0
	for si, end := range ends {
		for i := start; i < end; i++ {
			shardOf[i] = si
		}
		start = end
	}
	s.net.SetPartition(shardOf)

	s.shards = make([]*simShard, len(ends))
	for i := range s.shards {
		s.shards[i] = &simShard{
			id:         i,
			s:          s,
			nodeActive: bitset.New(nodes),
			mcActive:   bitset.New(len(s.mcs)),
			nodeWakes:  timerwheel.New[int32](),
			mcWakes:    timerwheel.New[int32](),
			col:        newCollector(nodes),
		}
	}
	for i, n := range s.nodes {
		sh := s.shards[shardOf[i]]
		n.sh = sh
		sh.nodes = append(sh.nodes, n)
	}
	for _, mc := range s.mcs {
		sh := s.shards[shardOf[mc.tile]]
		mc.sh = sh
		sh.mcs = append(sh.mcs, mc)
	}
}

// prewarm functionally installs an application's resident working sets:
// hot lines into its L1 and home L2 banks, warm lines into the L2. This is
// the usual fast functional warming that precedes detailed simulation; the
// timed warmup then only has to settle queues and schedulers, not stream
// megabytes through a crawling cold-start system. It zeroes the L1's counters;
// the caller zeroes the L2 banks' once every application is installed.
func (s *Simulator) prewarm(src trace.AppSource, n *node) {
	hot, warm := src.PrewarmLines()
	for _, line := range warm {
		bank := s.nodes[s.snuca.Bank(line)].l2
		bank.Fill(s.snuca.Local(line), false)
		bank.Access(s.snuca.Local(line), false) // promote past the LIP insertion point
	}
	for _, line := range hot {
		home := s.nodes[s.snuca.Bank(line)]
		home.l2.Fill(s.snuca.Local(line), false)
		home.l2.Access(s.snuca.Local(line), false)
		home.dirAdd(line, n.id)
		n.l1.Fill(line, false)
	}
	n.l1.ResetStats()
}

// Now returns the current cycle.
func (s *Simulator) Now() int64 { return s.now }

// mcTileOf returns the tile hosting the memory controller owning addr.
func (s *Simulator) mcTileOf(addr uint64) int {
	return s.mcTiles[s.amap.Controller(addr)]
}

// Step advances the whole system by the given number of cycles, with the
// event-driven scheduler by default or the dense reference stepper when
// selected (SetDenseStepping). Both produce identical
// results; see sched.go.
func (s *Simulator) Step(cycles int64) {
	if s.dense {
		s.stepDense(cycles)
		return
	}
	s.stepEvent(cycles)
}

// resetStats clears every counter at the warmup/measurement boundary while
// preserving learned state (cache contents, scheme thresholds, open rows).
func (s *Simulator) resetStats() {
	s.settle()
	for _, sh := range s.shards {
		sh.col = newCollector(len(s.nodes))
		sh.col.measuring = true
	}
	s.net.ResetStats()
	for _, n := range s.nodes {
		n.l1.ResetStats()
		n.l2.ResetStats()
		if n.core != nil {
			n.core.ResetStats()
		}
	}
	for i, mc := range s.mcs {
		mc.ctl.ResetStats()
		series := stats.NewSeries(10_000)
		s.idleSeries[i] = series
		mc.ctl.SetIdleSeries(func(cycle int64, avg float64) { series.Add(cycle, avg) })
	}
	if s.pol.S1 != nil {
		s.pol.S1.Tagged, s.pol.S1.Checked = 0, 0
	}
	if s.pol.S2 != nil {
		s.pol.S2.Tagged, s.pol.S2.Checked = 0, 0
	}
}

// Run executes the configured warmup and measurement window and returns the
// results. On a simulator positioned past cycle 0 (a Restore), the
// already-elapsed prefix of the window is skipped; see RunWithCheckpoint.
func (s *Simulator) Run() *Result {
	res, _ := s.RunWithCheckpoint(nil) // cannot fail without a sink
	return res
}

// Result is everything measured in one simulation window.
type Result struct {
	Cfg    config.Config
	Apps   []trace.Profile
	Cycles int64

	IPC       []float64 // per tile; 0 on idle tiles
	CoreStats []cpu.Stats
	L1        []cache.Stats
	L2        []cache.Stats

	Collector *Collector

	BankIdleness [][]float64     // [controller][bank]
	IdleSeries   []*stats.Series // [controller]
	DRAM         []dram.Stats
	Net          noc.Stats

	S1Tagged, S1Checked int64
	S2Tagged, S2Checked int64
	S1Thresholds        []int64

	// Blocked is host-side provenance, not a measurement of the simulated
	// machine: what the stepper that produced this result elided (see
	// DebugBlockedStats), counted since the simulator was built or restored.
	// It depends on the stepper, so nothing derived from a Result — Summary,
	// JSON, the stored bytes — reads it.
	Blocked BlockedStats
}

// collector returns the merged measurements: the single shard's collector
// directly, or an elementwise merge in shard order. Every merged quantity is
// either an integer counter or a float64 sum of integer-valued samples well
// below 2^53, so the merge is exact and the result is independent of the
// shard count.
func (s *Simulator) collector() *Collector {
	if len(s.shards) == 1 {
		return s.shards[0].col
	}
	col := newCollector(len(s.nodes))
	col.measuring = s.shards[0].col.measuring
	for _, sh := range s.shards {
		col.Merge(sh.col)
	}
	return col
}

func (s *Simulator) results() *Result {
	s.settle()
	r := &Result{
		Cfg:        s.cfg,
		Apps:       s.apps,
		Cycles:     s.cfg.Run.MeasureCycles,
		IPC:        make([]float64, len(s.nodes)),
		CoreStats:  make([]cpu.Stats, len(s.nodes)),
		L1:         make([]cache.Stats, len(s.nodes)),
		L2:         make([]cache.Stats, len(s.nodes)),
		Collector:  s.collector(),
		IdleSeries: s.idleSeries,
		Net:        s.net.Stats(),
		Blocked:    s.DebugBlockedStats(),
	}
	for i, n := range s.nodes {
		r.L1[i] = n.l1.Stats()
		r.L2[i] = n.l2.Stats()
		if n.core != nil {
			r.CoreStats[i] = n.core.Stats()
			r.IPC[i] = r.CoreStats[i].IPC()
		}
	}
	for _, mc := range s.mcs {
		r.BankIdleness = append(r.BankIdleness, mc.ctl.Idleness())
		r.DRAM = append(r.DRAM, mc.ctl.Stats())
	}
	if s.pol.S1 != nil {
		r.S1Tagged, r.S1Checked = s.pol.S1.Tagged, s.pol.S1.Checked
		for i := range s.nodes {
			r.S1Thresholds = append(r.S1Thresholds, s.pol.S1.Threshold(i))
		}
	}
	if s.pol.S2 != nil {
		r.S2Tagged, r.S2Checked = s.pol.S2.Tagged, s.pol.S2.Checked
	}
	return r
}

// MPKI returns the measured off-chip misses per kilo-instruction of a tile.
func (r *Result) MPKI(tile int) float64 {
	retired := r.CoreStats[tile].Retired
	if retired == 0 {
		return 0
	}
	return float64(r.Collector.OffChip[tile]) * 1000 / float64(retired)
}

// ActiveTiles returns the tiles running an application.
func (r *Result) ActiveTiles() []int {
	var out []int
	for i, a := range r.Apps {
		if a.Name != "" {
			out = append(out, i)
		}
	}
	return out
}
