package simd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"nocmem/internal/snapshot"
)

// Store is the daemon's on-disk content-addressed store. Two namespaces
// share one directory:
//
//	<dir>/results/<sha256(key)>.res — result summaries, keyed by the run
//	    key (config.Config.Key() + "|" + placement label, see exp.RunKey)
//	<dir>/snaps/<sha256(key)>.snap  — golden warm checkpoints, keyed by
//	    forkrun.Key (config.SnapshotKey() + warmup + placement), so one
//	    warm image serves the whole policy cross product of its group
//
// Every file is a snapshot.EncodeEntry frame: the full key (verified on
// load, so a hash collision or a misplaced file reads as a miss, not as a
// wrong answer) plus a CRC-64 over key and payload. A file that fails to
// decode is evicted on the spot and reported as a miss — corruption costs a
// re-run, never a panic or a poisoned cache. Writes go through a temp file
// and an atomic rename, so a crash mid-write leaves either the old entry or
// none.
//
// A Store is safe for concurrent use: entry files are immutable once
// renamed into place, and concurrent saves of the same key write identical
// bytes (results and checkpoints are deterministic functions of the key).
type Store struct {
	dir  string
	logf func(format string, args ...any)

	resultHits, resultMisses atomic.Int64
	snapHits, snapMisses     atomic.Int64
	evictions                atomic.Int64
}

// OpenStore opens (creating if needed) a store rooted at dir. logf receives
// best-effort I/O diagnostics; nil silences them.
func OpenStore(dir string, logf func(format string, args ...any)) (*Store, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, sub := range []string{"results", "snaps"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("simd: opening store: %w", err)
		}
	}
	return &Store{dir: dir, logf: logf}, nil
}

// Stats returns the store's traffic counters.
func (st *Store) Stats() StoreStats {
	return StoreStats{
		ResultHits:   st.resultHits.Load(),
		ResultMisses: st.resultMisses.Load(),
		SnapHits:     st.snapHits.Load(),
		SnapMisses:   st.snapMisses.Load(),
		Evictions:    st.evictions.Load(),
	}
}

func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (st *Store) resultPath(key string) string {
	return filepath.Join(st.dir, "results", hashKey(key)+".res")
}

func (st *Store) snapPath(key string) string {
	return filepath.Join(st.dir, "snaps", hashKey(key)+".snap")
}

// load reads and verifies one entry file. Absent files are silent misses;
// present-but-invalid files (truncated, bit-flipped, or holding a different
// key) are evicted and logged.
func (st *Store) load(path, key string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	storedKey, payload, err := snapshot.DecodeEntry(data)
	if err == nil && storedKey == key {
		return payload, true
	}
	if err != nil {
		st.logf("store: evicting corrupt entry %s: %v", filepath.Base(path), err)
	} else {
		st.logf("store: evicting %s: holds key %q, wanted %q", filepath.Base(path), storedKey, key)
	}
	if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
		st.logf("store: evicting %s: %v", filepath.Base(path), rmErr)
	}
	st.evictions.Add(1)
	return nil, false
}

// save atomically writes one entry file. Best-effort: persistence failures
// are logged, not surfaced — the in-memory result is still correct.
func (st *Store) save(path, key string, payload []byte) {
	data, err := snapshot.EncodeEntry(key, payload)
	if err != nil {
		st.logf("store: encoding %s: %v", filepath.Base(path), err)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		st.logf("store: writing %s: %v", filepath.Base(path), err)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		st.logf("store: writing %s: %v", filepath.Base(path), werr)
	}
}

// LoadResult returns the stored summary JSON for a run key.
func (st *Store) LoadResult(key string) ([]byte, bool) {
	payload, ok := st.load(st.resultPath(key), key)
	if ok {
		st.resultHits.Add(1)
	} else {
		st.resultMisses.Add(1)
	}
	return payload, ok
}

// SaveResult persists the summary JSON of a completed run.
func (st *Store) SaveResult(key string, summary []byte) {
	st.save(st.resultPath(key), key, summary)
}

// LoadSnapshot, SaveSnapshot and DeleteSnapshot implement
// forkrun.SnapshotStore over the snaps/ namespace.
func (st *Store) LoadSnapshot(key string) ([]byte, bool) {
	img, ok := st.load(st.snapPath(key), key)
	if ok {
		st.snapHits.Add(1)
	} else {
		st.snapMisses.Add(1)
	}
	return img, ok
}

// SaveSnapshot persists one warm checkpoint image.
func (st *Store) SaveSnapshot(key string, img []byte) {
	st.save(st.snapPath(key), key, img)
}

// DeleteSnapshot ejects one warm checkpoint (forkrun calls this when a
// store image fails to restore).
func (st *Store) DeleteSnapshot(key string) {
	if err := os.Remove(st.snapPath(key)); err != nil && !os.IsNotExist(err) {
		st.logf("store: deleting snapshot: %v", err)
	}
}
