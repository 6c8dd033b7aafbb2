// Package config defines the configuration tree for the whole simulated
// system: mesh geometry, router microarchitecture, cache hierarchy, DRAM
// timing, the two prioritization schemes, and run lengths.
//
// The zero value is not usable; start from one of the presets (Baseline32,
// Baseline16) and override fields as needed, then call Validate.
package config

import (
	"errors"
	"fmt"
)

// AntiStarvation selects how the prioritized network bounds the wait of
// normal-priority messages (Section 3.3 of the paper).
type AntiStarvation int

const (
	// AgeWindow is the paper's default: a high-priority flit beats a
	// normal one only while the normal flit's age does not exceed the
	// high-priority flit's age by more than StarvationWindow cycles.
	AgeWindow AntiStarvation = iota
	// Batching divides time into BatchInterval-cycle batches; packets
	// from older batches always rank above newer ones, and priority only
	// breaks ties within a batch. The paper notes this requires a
	// synchronized global clock across the cores.
	Batching
)

// RoutingAlgo selects the mesh routing algorithm.
type RoutingAlgo int

const (
	// RoutingXY is deterministic dimension-order routing (Table 1).
	RoutingXY RoutingAlgo = iota
	// RoutingWestFirst is the west-first turn model: packets complete all
	// westward hops first, then route adaptively among the remaining
	// productive directions by downstream credit availability. Deadlock
	// free (no turn into west ever occurs after another direction).
	RoutingWestFirst
)

// MemSched selects the memory-controller scheduling policy.
type MemSched int

const (
	// FRFCFS is first-ready, first-come-first-served (row hits first),
	// the baseline scheduler of Table 1.
	FRFCFS MemSched = iota
	// FCFS serves strictly oldest-first, ignoring the row buffer.
	FCFS
	// AppAwareMem prefers requests of latency-sensitive (low-MPKI)
	// applications at the banks, modelling application-aware memory
	// schedulers the paper cites (Section 2.3); within a class it is
	// FR-FCFS.
	AppAwareMem
)

// RouterPipeline selects the depth of the router pipeline.
type RouterPipeline int

const (
	// Pipeline5 is the baseline five-stage router (BW, RC, VA, SA, ST).
	Pipeline5 RouterPipeline = 5
	// Pipeline2 is the aggressive two-stage router used in the
	// sensitivity study of Figure 17 (setup, ST) for all flits.
	Pipeline2 RouterPipeline = 2
)

// Mesh describes the 2D mesh topology.
type Mesh struct {
	Width  int // number of columns (x dimension)
	Height int // number of rows (y dimension)
}

// Nodes returns the total number of tiles in the mesh.
func (m Mesh) Nodes() int { return m.Width * m.Height }

// MaxMeshTiles is the largest mesh Validate accepts. The simulator's data
// structures scale past this; the cap just keeps obviously absurd configs
// (typos like 1000x1000) from allocating gigabytes before failing elsewhere.
const MaxMeshTiles = 1024

// NumVNets is the number of virtual networks the NoC multiplexes over each
// physical link (requests and responses; protocol deadlock freedom requires
// keeping them on disjoint VCs). The router splits VCsPerPort evenly across
// the virtual networks by integer division, so Validate rejects any
// VCsPerPort not divisible by NumVNets — a non-divisible value would
// silently strand the trailing VCs on every port. Mirrored by a
// compile-time assertion against noc.NumVNets.
const NumVNets = 2

// MaxVCsPerPort and MaxBufferDepth bound the router's input side: a router
// tracks its input VCs — 5 ports times VCsPerPort — with one bit each in
// 64-bit masks, and addresses a VC's flit ring with byte-sized cursors.
const (
	MaxVCsPerPort  = 12
	MaxBufferDepth = 255
)

// MaxStarvationWindow bounds StarvationWindow. A router ranks its arbitration
// contenders by an integer key that adds the window to a message age and packs
// the sum above a few class and index bits (noc.arbKey); ages stay below 2^40
// over any run the simulator can execute, so a window up to 2^40 — far beyond
// "never starve-protect" — leaves the key twelve bits of headroom.
const MaxStarvationWindow int64 = 1 << 40

// NoC holds the network-on-chip parameters (Table 1, "NoC parameters").
type NoC struct {
	Pipeline RouterPipeline

	// VCsPerPort is the number of virtual channels per input port.
	// The VCs are split evenly across the NumVNets virtual networks
	// (requests and responses), so this must be a positive multiple of
	// NumVNets, at most MaxVCsPerPort; Validate rejects anything else.
	VCsPerPort int

	// BufferDepth is the per-VC buffer capacity in flits, 1 to
	// MaxBufferDepth.
	BufferDepth int

	// FlitBits is the flit width in bits; a 64-byte cache line plus a
	// header therefore occupies 1 + 512/FlitBits flits.
	FlitBits int

	// Routing picks the mesh routing algorithm.
	Routing RoutingAlgo

	// StarvationMode picks the anti-starvation mechanism.
	StarvationMode AntiStarvation

	// StarvationWindow is the AgeWindow bound: a high-priority flit
	// loses arbitration against a normal flit whose age exceeds the
	// high-priority flit's age by more than this many cycles, 0 to
	// MaxStarvationWindow.
	StarvationWindow int64

	// BatchInterval is the batch length in cycles for the Batching mode.
	BatchInterval int64

	// EnableBypass lets high-priority headers collapse BW/RC/VA/SA into a
	// single setup stage when they win arbitration (pipeline bypassing).
	EnableBypass bool

	// ClockDivisors slows individual routers: router id -> divisor k
	// means that router advances its pipeline once every k cycles
	// (frequency f/k). Unlisted routers run at full speed. The age field
	// remains correct without a global clock because Equation 1 lets each
	// router convert its local residence time to common cycles.
	ClockDivisors map[int]int
}

// Cache holds the parameters of one cache level.
type Cache struct {
	SizeBytes int
	LineBytes int
	Ways      int // 1 = direct mapped
	Latency   int64
	MSHRs     int

	// LIPInsertion selects streaming-resistant LRU insertion (new fills
	// enter at the LRU position, promoted on re-reference). Enabled for
	// the shared L2 so that no-reuse streams cannot flush the reused
	// working sets during the (scaled-down) simulation windows.
	LIPInsertion bool
}

// Sets returns the number of sets of the cache.
func (c Cache) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// DRAM holds the memory-system parameters (Table 1, "Memory Configuration").
// All t* timings are in memory-controller cycles; BusMultiplier converts them
// to CPU cycles.
type DRAM struct {
	Controllers   int // memory channels, placed at mesh corners
	BanksPerCtl   int
	BusMultiplier int // CPU cycles per memory-controller cycle

	TActivate  int // row activation (tRCD)
	TPrecharge int // precharge (tRP)
	TCAS       int // column access (tCL / tCWL)
	TBurst     int // data transfer occupancy of the shared bus
	CtlLatency int // fixed controller processing latency, in CPU cycles

	RowBytes int // row-buffer size per bank

	// BankInterleaveLines is the bank-interleave granularity within a
	// controller, in cache lines: this many consecutive per-controller
	// lines share a bank (and a row segment) before rotating to the next
	// bank. Must be a power of two dividing RowBytes/LineBytes.
	BankInterleaveLines int

	// WriteDrainHigh forces writes ahead of reads at a bank once that
	// many writebacks are parked there; otherwise writes are served only
	// when the bank has no ready read (read-priority with opportunistic
	// write drain).
	WriteDrainHigh int

	// StarveLimit caps FR-FCFS reordering: a request that has waited this
	// many CPU cycles is scheduled ahead of younger row-buffer hits.
	StarveLimit int64

	// RefreshPeriod is the interval between refresh events in CPU cycles
	// (0 disables refresh); RefreshCycles is how long every bank of the
	// controller stays busy per refresh, in memory cycles.
	RefreshPeriod int64
	RefreshCycles int

	// QueueCap caps pending requests per bank (0 = unbounded). The paper
	// observes queue buildup, so the default is unbounded.
	QueueCap int

	// Sched selects the memory scheduling policy (default FR-FCFS).
	Sched MemSched
}

// CPU holds the out-of-order core parameters.
type CPU struct {
	WindowSize  int // instruction window / ROB entries
	LSQSize     int // max in-flight memory instructions
	Width       int // fetch/commit width per cycle
	NonMemLat   int64
	L1HitExtra  int64 // unused beyond L1 latency; kept for clarity
	MaxOutMiss  int   // L1 MSHRs (bounds MLP)
	CommitExtra int64
}

// Scheme1 configures the latency-balancing response prioritization.
type Scheme1 struct {
	Enabled bool

	// ThresholdFactor multiplies the application's dynamic average
	// round-trip delay to obtain the lateness threshold (default 1.2).
	ThresholdFactor float64

	// UpdatePeriod is how often cores push fresh thresholds to the memory
	// controllers, in cycles. The paper uses 1 ms; scaled down here to
	// match shorter simulations.
	UpdatePeriod int64

	// InitialThreshold seeds the threshold before any round trip has
	// completed (in cycles).
	InitialThreshold int64
}

// Scheme2 configures the bank-load-balancing request prioritization.
type Scheme2 struct {
	Enabled bool

	// HistoryWindow is T: the lookback window, in cycles, of the per-node
	// bank history tables (default 2000).
	HistoryWindow int64

	// IdleThreshold is th: a request is prioritized if fewer than this
	// many requests were sent to its bank during the window (default 1).
	IdleThreshold int
}

// Run holds the measurement protocol.
type Run struct {
	WarmupCycles  int64
	MeasureCycles int64
	Seed          int64

	// Shards is the number of worker goroutines stepping the mesh in
	// parallel in event mode. 0 or 1 means the sequential single-goroutine
	// stepper. Must be non-negative and at most min(64, Mesh.Nodes()). The
	// tiles are split into one contiguous chunk per worker, balanced by a
	// per-tile activity cost model. Results are byte-identical for every
	// value; only wall-clock time changes.
	Shards int

	// Deprecated: ignored; the stepper has one layout, one chunk per worker.
	// The field stays only because Key() still encodes its slot (result
	// store keys and the command goldens depend on it), the repository
	// benchmark sets it, and daemon clients may send it in JSON. It goes
	// with the change to the repository benchmark that stops setting it.
	NoSteal bool

	// CheckpointAt names the cycle (measured from the start of the run,
	// warmup included) at which sim.RunWithCheckpoint serializes the full
	// simulator state. 0 disables checkpointing. Typically set to
	// WarmupCycles so one warmed-up snapshot forks many measurement
	// configurations.
	CheckpointAt int64

	// ResumeFrom asserts the cycle a restored snapshot was taken at;
	// sim.Restore rejects a snapshot from any other cycle. 0 skips the
	// check. It must not lie past CheckpointAt when both are set (a run
	// cannot resume after the point it is asked to checkpoint at).
	ResumeFrom int64
}

// Config is the complete system configuration.
type Config struct {
	Mesh Mesh
	NoC  NoC
	L1   Cache
	L2   Cache // per-bank; one bank per tile (S-NUCA)
	DRAM DRAM
	CPU  CPU
	S1   Scheme1
	S2   Scheme2
	Run  Run

	// AppAwareNet enables the application-aware network prioritization
	// baseline (Das et al.-style): every packet of the less
	// memory-intensive half of the applications is injected with high
	// priority. Mutually composable with (but normally compared against)
	// the paper's Scheme-1/2.
	AppAwareNet bool
}

// Baseline32 returns the paper's baseline configuration (Table 1): a 32-core
// 4x8 mesh with 4 memory controllers at the corners. Run lengths are scaled
// down ~100x relative to the paper (see DESIGN.md).
func Baseline32() Config {
	return Config{
		Mesh: Mesh{Width: 8, Height: 4},
		NoC: NoC{
			Pipeline: Pipeline5,
			// Table 1: 4 virtual channels per port, split between the
			// two virtual networks (requests, responses).
			VCsPerPort:       4,
			BufferDepth:      5,
			FlitBits:         128,
			StarvationMode:   AgeWindow,
			StarvationWindow: 1000,
			BatchInterval:    2000,
			EnableBypass:     true,
		},
		L1: Cache{
			SizeBytes: 32 << 10,
			LineBytes: 64,
			Ways:      1, // direct mapped
			Latency:   3,
			MSHRs:     32,
		},
		L2: Cache{
			SizeBytes:    512 << 10,
			LineBytes:    64,
			Ways:         8,
			Latency:      10,
			MSHRs:        16,
			LIPInsertion: true,
		},
		DRAM: DRAM{
			Controllers:   4,
			BanksPerCtl:   16,
			BusMultiplier: 5,
			// Timings in memory-bus cycles, following Table 1 and the
			// GEMS Ruby memory model the paper simulates: a row
			// conflict occupies its bank for tRP+tRCD+tCL = 22 cycles
			// (Table 1's bank busy time), while the shared channel
			// bus is busy only ~2 cycles per line (Ruby's
			// BASIC_BUS_BUSY_TIME), making the system bank-limited
			// rather than channel-limited.
			TActivate:           8,
			TPrecharge:          8,
			TCAS:                6,
			TBurst:              2,
			CtlLatency:          20,
			RowBytes:            8 << 10,
			BankInterleaveLines: 16,
			WriteDrainHigh:      32,
			StarveLimit:         1_500,
			RefreshPeriod:       312_000,
			RefreshCycles:       44,
		},
		CPU: CPU{
			WindowSize: 128,
			LSQSize:    64,
			Width:      4,
			NonMemLat:  1,
			MaxOutMiss: 16,
		},
		S1: Scheme1{
			Enabled:          false,
			ThresholdFactor:  1.2,
			UpdatePeriod:     50_000,
			InitialThreshold: 300,
		},
		S2: Scheme2{
			Enabled:       false,
			HistoryWindow: 2000,
			IdleThreshold: 1,
		},
		Run: Run{
			WarmupCycles:  200_000,
			MeasureCycles: 1_000_000,
			Seed:          1,
		},
	}
}

// Baseline16 returns the 16-core 4x4 configuration used in Figure 15: two
// memory controllers on opposite corners, all other parameters as in Table 1.
func Baseline16() Config {
	c := Baseline32()
	c.Mesh = Mesh{Width: 4, Height: 4}
	c.DRAM.Controllers = 2
	return c
}

// WithSchemes returns a copy of c with the two schemes toggled.
func (c Config) WithSchemes(s1, s2 bool) Config {
	c.S1.Enabled = s1
	c.S2.Enabled = s2
	return c
}

// ResponseFlits returns the number of flits of a data-bearing message
// (header + cache line).
func (c Config) ResponseFlits() int {
	return 1 + (c.L2.LineBytes*8+c.NoC.FlitBits-1)/c.NoC.FlitBits
}

// RequestFlits returns the number of flits of an address-only message.
func (c Config) RequestFlits() int { return 1 }

// Validate reports the first problem found in the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Mesh.Width < 2 || c.Mesh.Height < 2:
		return fmt.Errorf("config: mesh %dx%d too small (min 2x2)", c.Mesh.Width, c.Mesh.Height)
	case c.Mesh.Nodes() > MaxMeshTiles:
		return fmt.Errorf("config: mesh %dx%d has %d tiles (max %d)",
			c.Mesh.Width, c.Mesh.Height, c.Mesh.Nodes(), MaxMeshTiles)
	case c.Mesh.Nodes()&(c.Mesh.Nodes()-1) != 0:
		return fmt.Errorf("config: mesh %dx%d has %d tiles; S-NUCA bank interleaving needs a power-of-two tile count",
			c.Mesh.Width, c.Mesh.Height, c.Mesh.Nodes())
	case c.NoC.VCsPerPort < NumVNets || c.NoC.VCsPerPort%NumVNets != 0:
		return fmt.Errorf("config: VCsPerPort %d must be a positive multiple of the %d virtual networks (VCs are split evenly per vnet; a remainder would strand trailing VCs)",
			c.NoC.VCsPerPort, NumVNets)
	case c.NoC.VCsPerPort > MaxVCsPerPort:
		return fmt.Errorf("config: VCsPerPort %d exceeds %d (a router keeps one bit per input VC of its 5 ports in 64-bit masks)",
			c.NoC.VCsPerPort, MaxVCsPerPort)
	case c.NoC.BufferDepth < 1 || c.NoC.BufferDepth > MaxBufferDepth:
		return fmt.Errorf("config: BufferDepth %d outside [1, %d]", c.NoC.BufferDepth, MaxBufferDepth)
	case c.NoC.FlitBits < 64:
		return fmt.Errorf("config: FlitBits %d too small for a header", c.NoC.FlitBits)
	case c.NoC.Pipeline != Pipeline5 && c.NoC.Pipeline != Pipeline2:
		return fmt.Errorf("config: unsupported router pipeline %d", c.NoC.Pipeline)
	case c.NoC.StarvationWindow < 0 || c.NoC.StarvationWindow > MaxStarvationWindow:
		return fmt.Errorf("config: StarvationWindow %d outside [0, %d]", c.NoC.StarvationWindow, MaxStarvationWindow)
	case c.NoC.StarvationMode != AgeWindow && c.NoC.StarvationMode != Batching:
		return fmt.Errorf("config: unknown anti-starvation mode %d", c.NoC.StarvationMode)
	case c.NoC.StarvationMode == Batching && c.NoC.BatchInterval <= 0:
		return errors.New("config: BatchInterval must be > 0 for batching")
	case c.NoC.Routing != RoutingXY && c.NoC.Routing != RoutingWestFirst:
		return fmt.Errorf("config: unknown routing algorithm %d", c.NoC.Routing)
	}
	for id, div := range c.NoC.ClockDivisors {
		if id < 0 || id >= c.Mesh.Nodes() {
			return fmt.Errorf("config: clock divisor for nonexistent router %d", id)
		}
		if div < 1 {
			return fmt.Errorf("config: router %d clock divisor %d must be >= 1", id, div)
		}
	}
	for _, cc := range []struct {
		name string
		c    Cache
	}{{"L1", c.L1}, {"L2", c.L2}} {
		if err := validateCache(cc.name, cc.c); err != nil {
			return err
		}
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("config: L1 line %dB != L2 line %dB", c.L1.LineBytes, c.L2.LineBytes)
	}
	switch {
	case c.DRAM.Controllers != 2 && c.DRAM.Controllers != 4:
		return fmt.Errorf("config: %d memory controllers unsupported (2 or 4, placed at corners)", c.DRAM.Controllers)
	case c.DRAM.BanksPerCtl < 1 || c.DRAM.BanksPerCtl&(c.DRAM.BanksPerCtl-1) != 0:
		return fmt.Errorf("config: BanksPerCtl %d must be a power of two", c.DRAM.BanksPerCtl)
	case c.DRAM.BusMultiplier < 1:
		return errors.New("config: BusMultiplier must be >= 1")
	case c.DRAM.RowBytes < c.L2.LineBytes || c.DRAM.RowBytes&(c.DRAM.RowBytes-1) != 0:
		return fmt.Errorf("config: RowBytes %d must be a power of two >= line size", c.DRAM.RowBytes)
	case c.DRAM.TActivate <= 0 || c.DRAM.TPrecharge <= 0 || c.DRAM.TCAS <= 0 || c.DRAM.TBurst <= 0:
		return errors.New("config: DRAM timing parameters must be positive")
	case c.DRAM.BankInterleaveLines <= 0 || c.DRAM.BankInterleaveLines&(c.DRAM.BankInterleaveLines-1) != 0:
		return fmt.Errorf("config: BankInterleaveLines %d must be a power of two", c.DRAM.BankInterleaveLines)
	case c.DRAM.BankInterleaveLines > c.DRAM.RowBytes/c.L2.LineBytes:
		return fmt.Errorf("config: BankInterleaveLines %d exceeds the %d lines of a row",
			c.DRAM.BankInterleaveLines, c.DRAM.RowBytes/c.L2.LineBytes)
	case c.DRAM.WriteDrainHigh < 1:
		return errors.New("config: WriteDrainHigh must be >= 1")
	case c.DRAM.StarveLimit < 0:
		return errors.New("config: StarveLimit must be >= 0")
	case c.DRAM.Sched != FRFCFS && c.DRAM.Sched != FCFS && c.DRAM.Sched != AppAwareMem:
		return fmt.Errorf("config: unknown memory scheduler %d", c.DRAM.Sched)
	}
	switch {
	case c.CPU.WindowSize < 1 || c.CPU.Width < 1:
		return errors.New("config: CPU window and width must be >= 1")
	case c.CPU.LSQSize < 1 || c.CPU.LSQSize > c.CPU.WindowSize:
		return fmt.Errorf("config: LSQSize %d must be in [1, WindowSize]", c.CPU.LSQSize)
	case c.CPU.MaxOutMiss < 1:
		return errors.New("config: MaxOutMiss must be >= 1")
	}
	if c.S1.Enabled {
		switch {
		case c.S1.ThresholdFactor <= 0:
			return errors.New("config: Scheme-1 ThresholdFactor must be > 0")
		case c.S1.UpdatePeriod <= 0:
			return errors.New("config: Scheme-1 UpdatePeriod must be > 0")
		}
	}
	if c.S2.Enabled {
		switch {
		case c.S2.HistoryWindow <= 0:
			return errors.New("config: Scheme-2 HistoryWindow must be > 0")
		case c.S2.IdleThreshold < 1:
			return errors.New("config: Scheme-2 IdleThreshold must be >= 1")
		}
	}
	if c.Run.MeasureCycles <= 0 || c.Run.WarmupCycles < 0 {
		return errors.New("config: run lengths invalid")
	}
	switch {
	case c.Run.CheckpointAt < 0:
		return fmt.Errorf("config: CheckpointAt %d must be >= 0", c.Run.CheckpointAt)
	case c.Run.ResumeFrom < 0:
		return fmt.Errorf("config: ResumeFrom %d must be >= 0", c.Run.ResumeFrom)
	case c.Run.CheckpointAt > c.Run.WarmupCycles+c.Run.MeasureCycles:
		return fmt.Errorf("config: CheckpointAt %d lies past the %d-cycle run window",
			c.Run.CheckpointAt, c.Run.WarmupCycles+c.Run.MeasureCycles)
	case c.Run.CheckpointAt != 0 && c.Run.ResumeFrom > c.Run.CheckpointAt:
		return fmt.Errorf("config: ResumeFrom %d resumes past CheckpointAt %d",
			c.Run.ResumeFrom, c.Run.CheckpointAt)
	}
	if k := c.Run.Shards; k != 0 {
		switch {
		case k < 0:
			return fmt.Errorf("config: Shards %d must be positive (0 selects the sequential stepper)", k)
		case k > 64:
			return fmt.Errorf("config: Shards %d too large (max 64)", k)
		case k > c.Mesh.Nodes():
			return fmt.Errorf("config: Shards %d exceeds the %d mesh tiles", k, c.Mesh.Nodes())
		}
	}
	return nil
}

func validateCache(name string, c Cache) error {
	switch {
	case c.LineBytes < 8 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("config: %s line size %d must be a power of two >= 8", name, c.LineBytes)
	case c.Ways < 1:
		return fmt.Errorf("config: %s ways must be >= 1", name)
	case c.SizeBytes < c.LineBytes*c.Ways:
		return fmt.Errorf("config: %s size %dB smaller than one set", name, c.SizeBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("config: %s size %dB not divisible into sets of %d ways", name, c.SizeBytes, c.Ways)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("config: %s set count %d must be a power of two", name, c.Sets())
	case c.Latency < 1:
		return fmt.Errorf("config: %s latency must be >= 1", name)
	case c.MSHRs < 1:
		return fmt.Errorf("config: %s MSHRs must be >= 1", name)
	}
	return nil
}

// MCNodes returns the tile indices (y*Width+x) hosting the memory
// controllers: the four mesh corners for 4 controllers, or two opposite
// corners for 2.
func (c Config) MCNodes() []int {
	w, h := c.Mesh.Width, c.Mesh.Height
	corner := func(x, y int) int { return y*w + x }
	if c.DRAM.Controllers == 2 {
		return []int{corner(0, 0), corner(w-1, h-1)}
	}
	return []int{corner(0, 0), corner(w-1, 0), corner(0, h-1), corner(w-1, h-1)}
}
