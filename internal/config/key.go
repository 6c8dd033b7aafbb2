package config

import (
	"sort"
	"strconv"
)

// Key returns a deterministic, cheap cache key for the configuration: an
// explicit field-by-field encoding, so two equal configs always produce the
// same key and any field change produces a different one. It sits on the hot
// path of the run cache, hence no reflection.
//
// The encoding writes every field in declaration order separated by ','.
// ClockDivisors, the only map, is flattened in ascending router-id order so
// iteration order cannot leak into the key.
func (c Config) Key() string {
	// One config encodes to ~190 bytes today; 256 avoids regrowth.
	b := make([]byte, 0, 256)
	appendInt := func(v int64) {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ',')
	}
	appendBool := func(v bool) {
		if v {
			b = append(b, '1', ',')
		} else {
			b = append(b, '0', ',')
		}
	}
	appendFloat := func(v float64) {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, ',')
	}

	appendInt(int64(c.Mesh.Width))
	appendInt(int64(c.Mesh.Height))

	appendInt(int64(c.NoC.Pipeline))
	appendInt(int64(c.NoC.VCsPerPort))
	appendInt(int64(c.NoC.BufferDepth))
	appendInt(int64(c.NoC.FlitBits))
	appendInt(int64(c.NoC.Routing))
	appendInt(int64(c.NoC.StarvationMode))
	appendInt(c.NoC.StarvationWindow)
	appendInt(c.NoC.BatchInterval)
	appendBool(c.NoC.EnableBypass)
	if len(c.NoC.ClockDivisors) > 0 {
		ids := make([]int, 0, len(c.NoC.ClockDivisors))
		for id := range c.NoC.ClockDivisors {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			b = append(b, 'd')
			appendInt(int64(id))
			appendInt(int64(c.NoC.ClockDivisors[id]))
		}
	}
	b = append(b, ';')

	for _, cc := range [2]Cache{c.L1, c.L2} {
		appendInt(int64(cc.SizeBytes))
		appendInt(int64(cc.LineBytes))
		appendInt(int64(cc.Ways))
		appendInt(cc.Latency)
		appendInt(int64(cc.MSHRs))
		appendBool(cc.LIPInsertion)
		b = append(b, ';')
	}

	appendInt(int64(c.DRAM.Controllers))
	appendInt(int64(c.DRAM.BanksPerCtl))
	appendInt(int64(c.DRAM.BusMultiplier))
	appendInt(int64(c.DRAM.TActivate))
	appendInt(int64(c.DRAM.TPrecharge))
	appendInt(int64(c.DRAM.TCAS))
	appendInt(int64(c.DRAM.TBurst))
	appendInt(int64(c.DRAM.CtlLatency))
	appendInt(int64(c.DRAM.RowBytes))
	appendInt(int64(c.DRAM.BankInterleaveLines))
	appendInt(int64(c.DRAM.WriteDrainHigh))
	appendInt(c.DRAM.StarveLimit)
	appendInt(c.DRAM.RefreshPeriod)
	appendInt(int64(c.DRAM.RefreshCycles))
	appendInt(int64(c.DRAM.QueueCap))
	appendInt(int64(c.DRAM.Sched))
	b = append(b, ';')

	appendInt(int64(c.CPU.WindowSize))
	appendInt(int64(c.CPU.LSQSize))
	appendInt(int64(c.CPU.Width))
	appendInt(c.CPU.NonMemLat)
	appendInt(c.CPU.L1HitExtra)
	appendInt(int64(c.CPU.MaxOutMiss))
	appendInt(c.CPU.CommitExtra)
	b = append(b, ';')

	appendBool(c.S1.Enabled)
	appendFloat(c.S1.ThresholdFactor)
	appendInt(c.S1.UpdatePeriod)
	appendInt(c.S1.InitialThreshold)
	b = append(b, ';')

	appendBool(c.S2.Enabled)
	appendInt(c.S2.HistoryWindow)
	appendInt(int64(c.S2.IdleThreshold))
	b = append(b, ';')

	appendInt(c.Run.WarmupCycles)
	appendInt(c.Run.MeasureCycles)
	appendInt(c.Run.Seed)
	appendInt(int64(c.Run.Shards))
	appendBool(c.Run.NoSteal) // ignored by the stepper; keeps its slot, see Run.NoSteal
	appendInt(c.Run.CheckpointAt)
	appendInt(c.Run.ResumeFrom)
	appendBool(c.AppAwareNet)

	return string(b)
}

// SnapshotKey returns the structural compatibility key of a checkpoint: the
// Key of the configuration with everything a snapshot does not depend on
// zeroed out. Two configurations with equal SnapshotKeys describe the same
// machine state layout (geometry, cache shapes, DRAM organization, trace
// seed), so a warmup snapshot taken under one restores into the other. Run
// windows, the stepping layout (worker count and the ignored NoSteal —
// snapshots are partition-agnostic, so a sequential warmup restores into a
// sharded run and vice versa) and the prioritization/scheduling policies — pure
// decision logic with separately-carried state — are deliberately excluded,
// which is what lets one baseline warmup snapshot fork into Scheme-1/
// Scheme-2/app-aware measurement configurations.
func (c Config) SnapshotKey() string {
	c.Run.WarmupCycles = 0
	c.Run.MeasureCycles = 0
	c.Run.Shards = 0
	c.Run.NoSteal = false
	c.Run.CheckpointAt = 0
	c.Run.ResumeFrom = 0
	c.S1 = Scheme1{}
	c.S2 = Scheme2{}
	c.DRAM.Sched = FRFCFS
	c.AppAwareNet = false
	return c.Key()
}
