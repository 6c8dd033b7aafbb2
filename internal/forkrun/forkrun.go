// Package forkrun amortizes simulation warmup across configurations.
//
// A parameter sweep runs the same workload under N policy variants; without
// sharing, every variant re-executes an identical (or near-identical) warmup
// before its measurement window. Cache instead executes the warmup once per
// compatible group — under the unprioritized baseline policy, since the
// variants must share one warm state — checkpoints the warmed simulator, and
// restores that snapshot for every variant's measurement run.
//
// Compatibility follows sim.Restore's own rules: a snapshot is keyed by
// config.SnapshotKey (the policy-free configuration prefix), the application
// placement and the warmup length. Variants differing only in
// Scheme-1/Scheme-2, the application-aware baselines, the memory scheduler or
// the stepping layout (worker count) share a snapshot; anything
// touching the substrate (mesh, caches, DRAM timing, seed, ...) forms its own
// group.
//
// The trade-off: a forked run warms up under the baseline policy even when
// it measures a scheme, so its results can differ slightly from a cold run
// whose warmup already had the scheme enabled. Measurement statistics are
// reset at the fork point either way. Callers opt in explicitly (the -fork
// flags of cmd/sweep, cmd/figures and cmd/nocsim).
//
// A Cache may additionally be backed by a persistent SnapshotStore (the
// simulation daemon's on-disk store): warm images then survive process
// restarts, so a freshly started daemon forks measurement runs from
// checkpoints warmed in a previous life instead of re-executing a single
// warmup cycle. A store image that fails to restore is evicted — from memory
// and disk — and the warmup re-executes, so corruption degrades to wasted
// work, never to an error surfaced on a request that a fresh warmup could
// have served.
package forkrun

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/snapshot"
	"nocmem/internal/trace"
)

// SnapshotStore persists warm checkpoint images across processes. Save and
// Delete are best-effort (implementations log and continue on I/O failure);
// Load returns ok=false for both absent and unreadable entries.
type SnapshotStore interface {
	LoadSnapshot(key string) (img []byte, ok bool)
	SaveSnapshot(key string, img []byte)
	DeleteSnapshot(key string)
}

// Stats reports where a Cache's snapshots came from — the warmup-provenance
// counters surfaced by the daemon's /statsz and by sweep -v.
type Stats struct {
	// Warmups counts warmup windows actually executed by this process.
	Warmups int64 `json:"warmups"`
	// Forked counts measurement runs forked from a shared warm snapshot.
	Forked int64 `json:"forked"`
	// MemHits counts snapshot requests served by the in-memory cache
	// (i.e. coalesced onto an earlier requester's warmup or load).
	MemHits int64 `json:"mem_hits"`
	// DiskHits counts snapshots resurrected from the persistent store.
	DiskHits int64 `json:"disk_hits"`
	// Evictions counts snapshots ejected as corrupt (header or restore
	// failure of a store image).
	Evictions int64 `json:"evictions"`
}

// entry is one singleflight slot: done is closed when snap/err are final.
type entry struct {
	done      chan struct{}
	snap      []byte
	err       error
	fromStore bool // snap was loaded from the persistent store
}

// Cache memoizes warmed-up checkpoints. The zero value is ready to use; a
// Cache is safe for concurrent use. Concurrent runs needing the same
// snapshot wait for the first requester's warmup instead of repeating it.
type Cache struct {
	mu    sync.Mutex
	snaps map[string]*entry
	store SnapshotStore

	warmups, forked, memHits, diskHits, evictions atomic.Int64
}

// SetStore installs the persistent snapshot store backing this cache. Call
// before the first Run; nil disables persistence.
func (c *Cache) SetStore(st SnapshotStore) {
	c.mu.Lock()
	c.store = st
	c.mu.Unlock()
}

// Stats returns the cache's provenance counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Warmups:   c.warmups.Load(),
		Forked:    c.forked.Load(),
		MemHits:   c.memHits.Load(),
		DiskHits:  c.diskHits.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Key returns the snapshot cache key of cfg's run: everything that
// determines whether two runs may restore the same warmed state. The
// placement is keyed by application name, matching the name check
// sim.Restore performs against the snapshot header. The stepping layout
// (Run.Shards) is deliberately absent: snapshots are
// partition-agnostic, so one warmup image serves every worker count.
func Key(cfg config.Config, apps []trace.Profile) string {
	var b strings.Builder
	b.WriteString(cfg.SnapshotKey())
	fmt.Fprintf(&b, "|w%d", cfg.Run.WarmupCycles)
	for _, a := range apps {
		b.WriteByte('|')
		b.WriteString(a.Name)
	}
	return b.String()
}

// Snapshots reports how many distinct warm snapshots the cache holds in
// memory (executed by this process or resurrected from the store).
func (c *Cache) Snapshots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.snaps)
}

// Run executes cfg's full warmup+measurement window over apps (one profile
// per tile) and returns the measurement results, sharing the warmup with
// every other compatible configuration. Runs with no warmup, or that manage
// checkpoints themselves via Run.CheckpointAt/ResumeFrom, fall back to a
// plain cold run.
func (c *Cache) Run(cfg config.Config, apps []trace.Profile) (*sim.Result, error) {
	if cfg.Run.WarmupCycles <= 0 || cfg.Run.CheckpointAt != 0 || cfg.Run.ResumeFrom != 0 {
		s, err := sim.New(cfg, apps)
		if err != nil {
			return nil, err
		}
		return s.Run(), nil
	}
	for attempt := 0; ; attempt++ {
		snap, fromStore, err := c.snapshot(cfg, apps)
		if err != nil {
			return nil, fmt.Errorf("forkrun: warmup snapshot: %w", err)
		}
		rcfg := cfg
		rcfg.Run.ResumeFrom = cfg.Run.WarmupCycles
		s, err := sim.RestoreImage(rcfg, apps, snap)
		if err != nil {
			// A store image passed the header check but failed the full
			// decode (bit rot past the CRC's reach should be impossible, a
			// stale or foreign file is not): evict it everywhere and retry
			// once with a fresh warmup. A snapshot produced by this process
			// failing to restore is a real bug — surface it.
			if fromStore && attempt == 0 {
				c.evict(cfg, apps)
				continue
			}
			return nil, fmt.Errorf("forkrun: restoring warmup snapshot: %w", err)
		}
		c.forked.Add(1)
		return s.Run(), nil
	}
}

// snapshot returns (producing at most once per key) the warmed checkpoint
// image for cfg's group, reporting whether it came from the persistent
// store.
func (c *Cache) snapshot(cfg config.Config, apps []trace.Profile) ([]byte, bool, error) {
	key := Key(cfg, apps)
	c.mu.Lock()
	if c.snaps == nil {
		c.snaps = make(map[string]*entry)
	}
	if e, ok := c.snaps[key]; ok {
		c.mu.Unlock()
		<-e.done
		c.memHits.Add(1)
		return e.snap, e.fromStore, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.snaps[key] = e
	st := c.store
	c.mu.Unlock()
	defer close(e.done)

	if st != nil {
		if img, ok := st.LoadSnapshot(key); ok {
			// The store already checksummed the entry frame; validating the
			// checkpoint header here additionally rejects images written by
			// a binary with a different snapshot.Version before any run
			// wastes a restore attempt on them.
			if _, err := snapshot.NewReaderBytes(img); err == nil {
				e.snap, e.fromStore = img, true
				c.diskHits.Add(1)
				return e.snap, true, nil
			}
			st.DeleteSnapshot(key)
			c.evictions.Add(1)
		}
	}

	s, err := sim.New(canonical(cfg), apps)
	if err != nil {
		e.err = err
		return nil, false, err
	}
	s.Step(cfg.Run.WarmupCycles)
	if e.snap, err = exactImage(s); err != nil {
		e.err = err
		return nil, false, err
	}
	c.warmups.Add(1)
	if st != nil {
		st.SaveSnapshot(key, e.snap)
	}
	return e.snap, false, nil
}

// byteCount is an io.Writer that only measures.
type byteCount int

func (n *byteCount) Write(p []byte) (int, error) {
	*n += byteCount(len(p))
	return len(p), nil
}

// exactImage checkpoints s into a slice of exactly the image's size. An image
// is retained for the life of the cache and shared by every fork, so it is
// encoded twice — once to count, once into the sized slice — rather than grown:
// a doubling buffer holds a dead half-size copy while the image is written and
// keeps its unused tail for as long as the image lives. The second walk costs
// a few milliseconds per executed warmup.
func exactImage(s *sim.Simulator) ([]byte, error) {
	var n byteCount
	if err := s.Checkpoint(&n); err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	if err := s.Checkpoint(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// evict drops a poisoned snapshot from the in-memory cache and the
// persistent store, so the next requester re-executes the warmup.
func (c *Cache) evict(cfg config.Config, apps []trace.Profile) {
	key := Key(cfg, apps)
	c.mu.Lock()
	delete(c.snaps, key)
	st := c.store
	c.mu.Unlock()
	if st != nil {
		st.DeleteSnapshot(key)
	}
	c.evictions.Add(1)
}

// canonical strips every policy dimension sim.Restore tolerates differing
// between the snapshot producer and the restoring run, so one warmed
// snapshot serves the whole policy cross product of its group.
func canonical(cfg config.Config) config.Config {
	cfg = cfg.WithSchemes(false, false)
	cfg.AppAwareNet = false
	cfg.DRAM.Sched = config.FRFCFS
	cfg.Run.CheckpointAt, cfg.Run.ResumeFrom = 0, 0
	return cfg
}
