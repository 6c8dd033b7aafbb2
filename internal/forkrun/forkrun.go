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
// A threshold sweep shares more than the warmup. Its points differ only in
// Scheme-1's ThresholdFactor, which nothing reads before the first threshold
// push with data, so the cycles up to that push are common to all of them
// too: a group's second point checkpoints there, whenever it comes, and the
// rest restore that image instead of the warm one (see prefixState). Unlike
// the warmup, this prefix is exact: each point's bytes are those of its own
// forked run. The image is kept in the cache's store, or, on a cache without
// one, in memory for the life of the cache.
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
// warmup cycle, and forks threshold points from prefix images built in a
// previous life too. Such a cache keeps no image in memory: the request that
// runs a warmup forks from the image it holds, saves it and reads it back
// once, and every later fork from the warmup boundary loads the image from
// the store (a disk hit). Only a key whose image the store did not give back
// intact keeps it in memory, so a store that loses or damages saves costs one
// warmup per key, not one per request. A store image that fails to restore is
// evicted — from memory and disk — and the warmup re-executes (a prefix
// image: the point runs from the warm image), so corruption degrades to
// wasted work, never to an error surfaced on a request that a fresh warmup
// could have served. A cache without a store keeps each warm image in memory
// for its life.
package forkrun

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/snapshot"
	"nocmem/internal/trace"
)

// SnapshotStore persists checkpoint images across processes: the warm images
// under Key and the threshold-sweep prefixes under prefixKey. Save and Delete
// are best-effort (implementations log and continue on I/O failure); Load
// returns ok=false for both absent and unreadable entries.
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
	// MemHits counts warm-image requests served by an image kept in memory
	// (coalesced onto an earlier requester's warmup): every one after the
	// first of its key on a cache without a store, and on a store-backed
	// cache only for keys whose image the store did not give back.
	MemHits int64 `json:"mem_hits"`
	// DiskHits counts warm images loaded from the persistent store: a
	// restarted process's first request of a key, and on a store-backed
	// cache every request of a key after the one that ran its warmup.
	DiskHits int64 `json:"disk_hits"`
	// Evictions counts snapshots ejected as corrupt (header or restore
	// failure of a store image) and prefix images that were missing from the
	// store or failed to restore.
	Evictions int64 `json:"evictions"`
	// PrefixBuilds counts threshold-sweep prefix images built (see
	// prefixState).
	PrefixBuilds int64 `json:"prefix_builds"`
	// PrefixForks counts measurement runs forked from a prefix image at D
	// instead of the warm image; they count in Forked too.
	PrefixForks int64 `json:"prefix_forks"`
}

// entry is one warm key's singleflight slot: done is closed when err and
// snap are final. snap is the image kept in memory: always without a store,
// and with one only when the store did not give the image back (see produce).
type entry struct {
	done chan struct{}
	snap []byte
	err  error
}

// Cache memoizes warmed-up checkpoints. The zero value is ready to use; a
// Cache is safe for concurrent use. Concurrent runs needing the same
// snapshot wait for the first requester's warmup instead of repeating it.
type Cache struct {
	mu     sync.Mutex
	snaps  map[string]*entry
	groups map[[sha256.Size]byte]prefixState // by digest of prefixKey; see prefixState
	store  SnapshotStore
	images mapStore // the prefix images, while store is nil

	warmups, forked, memHits, diskHits, evictions atomic.Int64
	prefixBuilds, prefixForks                     atomic.Int64
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

		PrefixBuilds: c.prefixBuilds.Load(),
		PrefixForks:  c.prefixForks.Load(),
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

// Snapshots reports how many warm keys the cache has a usable image for,
// executed by this process or found in the store, whether the image is kept
// in memory or in the store; prefix images and keys in flight do not count.
func (c *Cache) Snapshots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.snaps {
		select {
		case <-e.done:
			if e.err == nil {
				n++
			}
		default:
		}
	}
	return n
}

// Run executes cfg's full warmup+measurement window over apps (one profile
// per tile) and returns the measurement results, sharing the warmup with
// every other compatible configuration, and a threshold sweep's prefix with
// the sweep's other points (see prefixState). Runs with no warmup, or that
// manage checkpoints themselves via Run.CheckpointAt/ResumeFrom, fall back to
// a plain cold run.
func (c *Cache) Run(cfg config.Config, apps []trace.Profile) (*sim.Result, error) {
	if cfg.Run.WarmupCycles <= 0 || cfg.Run.CheckpointAt != 0 || cfg.Run.ResumeFrom != 0 {
		s, err := sim.New(cfg, apps)
		if err != nil {
			return nil, err
		}
		return s.Run(), nil
	}
	key := Key(cfg, apps)
	pk := prefixKey(key, group(cfg))
	id := sha256.Sum256([]byte(pk))
	c.mu.Lock()
	if c.groups == nil {
		c.groups = make(map[[sha256.Size]byte]prefixState)
	}
	state := c.groups[id]
	switch state {
	case 0:
		c.groups[id] = prefixSeen
	case prefixSeen:
		c.groups[id] = prefixBuilding
	}
	st := c.store
	if st == nil {
		st = &c.images
	}
	c.mu.Unlock()

	switch state {
	case prefixSeen:
		return c.makePrefix(cfg, apps, key, pk, id, st)
	case 0, prefixBuilt:
		if s := c.restorePrefix(cfg, apps, pk, id, st, state == prefixBuilt); s != nil {
			return s.Run(), nil
		}
	}
	s, err := c.restoreWarm(cfg, apps, key)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// restoreWarm restores the warm image of cfg's group (key) into cfg's
// simulator, positioned at the warmup boundary.
func (c *Cache) restoreWarm(cfg config.Config, apps []trace.Profile, key string) (*sim.Simulator, error) {
	for attempt := 0; ; attempt++ {
		snap, fromStore, err := c.snapshot(cfg, apps, key)
		if err != nil {
			return nil, fmt.Errorf("forkrun: warmup snapshot: %w", err)
		}
		s, err := c.fork(cfg, apps, snap, cfg.Run.WarmupCycles)
		if err != nil {
			// A store image passed the header check but failed the full
			// decode (bit rot past the CRC's reach should be impossible, a
			// stale or foreign file is not): evict it everywhere and retry
			// once with a fresh warmup. A snapshot produced by this process
			// failing to restore is a real bug — surface it.
			if fromStore && attempt == 0 {
				c.evict(key)
				continue
			}
			return nil, fmt.Errorf("forkrun: restoring warmup snapshot: %w", err)
		}
		return s, nil
	}
}

// fork restores img, taken at cycle at, into cfg's simulator.
func (c *Cache) fork(cfg config.Config, apps []trace.Profile, img []byte, at int64) (*sim.Simulator, error) {
	cfg.Run.ResumeFrom = at
	s, err := sim.RestoreImage(cfg, apps, img)
	if err == nil {
		c.forked.Add(1)
	}
	return s, err
}

// group keys the points that may share a prefix within one warm key: cfg's
// Key with the factor zeroed and the stepping layout normalised (images are
// partition-agnostic).
func group(cfg config.Config) string {
	cfg.S1.ThresholdFactor = 0
	cfg.Run.Shards, cfg.Run.NoSteal = 0, false
	return cfg.Key()
}

// prefixState is what a cache knows of one threshold group's prefix: the
// points of one warm group that differ only in S1.ThresholdFactor. The factor
// is read by one thing only, a Scheme-1 push that publishes a measured
// average, and a fork starts Scheme-1 with no data, so every such point
// executes the same cycles from the warmup boundary W up to D, the first push
// with data (sim.Simulator.RunToPush). The group's prefix image is its state
// at D; a point restored from it simulates only D to the window's end.
//
// The image lives in the cache's store under prefixKey, behind the 8 bytes of
// D, or, without a store, in the cache's private map; memory keeps only the
// state, under a digest of that key. A group's second request builds the
// image, whenever it comes, and every later request restores it: a single
// point of a group costs no image, and a shuffled policy grid forks at D
// instead of W. A request that finds its group building does not wait; it
// runs from the warm image. A group this process has not seen looks in the
// store first, so a restarted daemon forks from its previous life's images.
// An image that is missing or fails to restore is deleted and counted as an
// eviction; its point runs from the warm image and the group's next request
// rebuilds. The zero state is a group this process has not seen.
type prefixState uint8

const (
	prefixSeen     prefixState = iota + 1 // asked for once; the next request builds
	prefixBuilding                        // under construction; requests meanwhile run from the warm image
	prefixBuilt                           // the image at D is in the store
)

// prefixKey is the store key of group g's prefix image under warm key key.
// The group key is a whole Config.Key(), so it enters as a digest.
func prefixKey(key, g string) string {
	sum := sha256.Sum256([]byte(g))
	return key + "|prefix " + hex.EncodeToString(sum[:])
}

// restorePrefix restores the prefix image stored under pk into cfg's
// simulator, or returns nil when there is none to restore. An image that
// fails to restore, or one that built says should be there and is not, is
// deleted and counted as an eviction, and the group goes back to seen.
func (c *Cache) restorePrefix(cfg config.Config, apps []trace.Profile, pk string, id [sha256.Size]byte, st SnapshotStore, built bool) *sim.Simulator {
	img, ok := st.LoadSnapshot(pk)
	if !ok && !built {
		return nil
	}
	if ok && len(img) > 8 {
		at := int64(binary.LittleEndian.Uint64(img))
		if s, err := c.fork(cfg, apps, img[8:], at); err == nil {
			c.setState(id, prefixBuilt)
			c.prefixForks.Add(1)
			return s
		}
	}
	st.DeleteSnapshot(pk)
	c.evictions.Add(1)
	c.setState(id, prefixSeen)
	return nil
}

// makePrefix runs cfg from the warm image, saving the image at D under pk on
// the way, and returns cfg's own result. A failed build leaves the group
// seen, so its next request tries again.
func (c *Cache) makePrefix(cfg config.Config, apps []trace.Profile, key, pk string, id [sha256.Size]byte, st SnapshotStore) (*sim.Result, error) {
	s, err := c.restoreWarm(cfg, apps, key)
	if err == nil {
		at := s.RunToPush()
		var img []byte
		if img, err = exactImage(s, binary.LittleEndian.AppendUint64(nil, uint64(at))); err == nil {
			st.SaveSnapshot(pk, img)
		}
	}
	if err != nil {
		c.setState(id, prefixSeen)
		return nil, err
	}
	c.setState(id, prefixBuilt)
	c.prefixBuilds.Add(1)
	return s.Run(), nil
}

func (c *Cache) setState(id [sha256.Size]byte, state prefixState) {
	c.mu.Lock()
	c.groups[id] = state
	c.mu.Unlock()
}

// mapStore is the prefix store of a cache without a SnapshotStore: its
// images, in memory for the life of the cache.
type mapStore struct {
	mu   sync.Mutex
	imgs map[string][]byte
}

func (m *mapStore) LoadSnapshot(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	img, ok := m.imgs[key]
	return img, ok
}

func (m *mapStore) SaveSnapshot(key string, img []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.imgs == nil {
		m.imgs = make(map[string][]byte)
	}
	m.imgs[key] = img
}

func (m *mapStore) DeleteSnapshot(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.imgs, key)
}

// snapshot returns the warmed checkpoint image of cfg's group, key,
// producing it at most once per key, and reports whether it came from the
// persistent store. A slot whose image lives in the store alone is served by
// a store load per request; if the store has lost the image, the slot is
// dropped and the warmup runs again.
func (c *Cache) snapshot(cfg config.Config, apps []trace.Profile, key string) ([]byte, bool, error) {
	for {
		c.mu.Lock()
		if c.snaps == nil {
			c.snaps = make(map[string]*entry)
		}
		e, ok := c.snaps[key]
		if !ok {
			e = &entry{done: make(chan struct{})}
			c.snaps[key] = e
		}
		st := c.store
		c.mu.Unlock()
		if !ok {
			return c.produce(e, cfg, apps, key, st)
		}
		<-e.done
		if e.err != nil || e.snap != nil {
			c.memHits.Add(1)
			return e.snap, false, e.err
		}
		if img := c.load(st, key); img != nil {
			return img, true, nil
		}
		c.mu.Lock()
		if c.snaps[key] == e {
			delete(c.snaps, key)
		}
		c.mu.Unlock()
	}
}

// produce fills e, key's new slot: it loads the image from the store, or
// runs the warmup and saves its image there. The image stays in e only when
// there is no store, or the store does not give back the bytes just saved (a
// store that loses or damages images must not cost a warmup per request).
func (c *Cache) produce(e *entry, cfg config.Config, apps []trace.Profile, key string, st SnapshotStore) ([]byte, bool, error) {
	defer close(e.done)
	if img := c.load(st, key); img != nil {
		return img, true, nil
	}
	s, err := sim.New(canonical(cfg), apps)
	if err != nil {
		e.err = err
		return nil, false, err
	}
	s.Step(cfg.Run.WarmupCycles)
	img, err := exactImage(s, nil)
	if err != nil {
		e.err = err
		return nil, false, err
	}
	c.warmups.Add(1)
	if st != nil {
		st.SaveSnapshot(key, img)
		if back, ok := st.LoadSnapshot(key); ok && bytes.Equal(back, img) {
			return img, false, nil
		}
	}
	e.snap = img
	return img, false, nil
}

// load reads key's warm image from st, counting a disk hit, or returns nil
// when st is nil or has no image. An image whose checkpoint header this binary
// cannot read (the store already checksummed the entry frame; this rejects
// images of a different snapshot.Version before a restore is wasted on them)
// is deleted and counted as an eviction.
func (c *Cache) load(st SnapshotStore, key string) []byte {
	if st == nil {
		return nil
	}
	img, ok := st.LoadSnapshot(key)
	if !ok {
		return nil
	}
	if _, err := snapshot.NewReaderBytes(img); err != nil {
		st.DeleteSnapshot(key)
		c.evictions.Add(1)
		return nil
	}
	c.diskHits.Add(1)
	return img
}

// byteCount is an io.Writer that only measures.
type byteCount int

func (n *byteCount) Write(p []byte) (int, error) {
	*n += byteCount(len(p))
	return len(p), nil
}

// exactImage checkpoints s, behind head, into a slice of exactly that size.
// A warm image of a cache without a store is retained for the life of the
// cache and shared by every fork, so it is encoded twice — once to count,
// once into the sized slice — rather than grown: a doubling buffer holds a
// dead half-size copy while the image is written and keeps its unused tail
// for as long as the image lives. The second walk costs a few milliseconds
// per executed warmup or prefix build; an image bound for the store skips the
// dead copies too.
func exactImage(s *sim.Simulator, head []byte) ([]byte, error) {
	var n byteCount
	if err := s.Checkpoint(&n); err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, len(head)+int(n)))
	buf.Write(head)
	if err := s.Checkpoint(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// evict drops a poisoned snapshot from the in-memory cache and the
// persistent store, so the next requester re-executes the warmup.
func (c *Cache) evict(key string) {
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
