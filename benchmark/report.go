package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number. Q1/Q3 are set when Value is a median of
// repeats; Valid is set (to false) only when the host cannot measure what the
// metric claims, e.g. a parallel ratio on one CPU.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
	Valid *bool    `json:"valid,omitempty"`
	Note  string   `json:"note,omitempty"`
}

// hostInfo is the output header: what the numbers were taken on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	StoreFS    string `json:"store_fs"`
	TmpDir     string `json:"tmp_dir"`
}

// result is what one workload process reports.
type result struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     hostInfo `json:"host"`
	// Ops and Failed count output checks, points and requests: one that
	// errors, is refused, or fails its check counts as failed.
	Ops      int64             `json:"ops"`
	Failed   int64             `json:"failed"`
	Failures []string          `json:"failures,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	// SummarySHA256 hashes every simulated summary the workload produced,
	// for comparing simulated statistics across commits (informational).
	SummarySHA256 string `json:"summary_sha256"`
	SpanFile      string `json:"span_file,omitempty"`
	// LayerSelfS is the traced workload's wall-clock self time per layer.
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
}

// env is what a workload runs in: its seed and sizes, where it may write,
// and where its checks and metrics go.
type env struct {
	seed  int64
	scale float64 // common factor on the nominal sizes; 1 = -seconds 16
	procs int     // min(nproc, 2): workers, pool width, clients
	tmp   string  // scratch directory, removed by the caller
	tr    *tracer // nil with tracing off
	root  int     // the traced workload's root span
	rss   *rssSampler

	mu       sync.Mutex
	ops      int64
	failed   int64
	failures []string
	metrics  map[string]metric
	sha      hash.Hash
}

func newEnv(seed int64, scale float64, tmp string, tr *tracer) *env {
	return &env{
		seed: seed, scale: scale, procs: min(runtime.NumCPU(), 2), tmp: tmp, tr: tr, root: noSpan,
		metrics: make(map[string]metric), sha: sha256.New(),
	}
}

func (e *env) traced() bool { return e.tr != nil }

// beginRoot opens the root span of the traced workload's hand-driven
// pipeline; the per-layer self times are taken over its subtree.
func (e *env) beginRoot() {
	if e.tr != nil {
		e.root = e.tr.begin("bench.workload", noSpan, 0)
	}
}

func (e *env) endRoot() { e.tr.end(e.root) }

// cycles scales a nominal cycle count, keeping windows long enough to retire
// instructions at smoke sizes.
func (e *env) cycles(nominal int64) int64 {
	return max(int64(math.Round(float64(nominal)*e.scale)), 200)
}

// count scales a nominal request or point count.
func (e *env) count(nominal, floor int) int {
	return max(int(math.Round(float64(nominal)*e.scale)), floor)
}

// smoke reports whether the run is test-sized: fixed per-point costs
// (restores, connection set-up) then dominate, so point grids shrink too.
func (e *env) smoke() bool { return e.scale < 0.05 }

// check counts one output check (or point, or request) and records its
// failure.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ops++
	if !ok {
		e.failed++
		if len(e.failures) < 20 {
			e.failures = append(e.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// must counts err == nil as one check.
func (e *env) must(err error, what string) bool {
	return e.check(err == nil, "%s: %v", what, err)
}

// hashSummary folds one summary's bytes into the workload's digest. Callers
// feed summaries in a fixed order.
func (e *env) hashSummary(b []byte) {
	e.mu.Lock()
	e.sha.Write(b)
	e.mu.Unlock()
}

func (e *env) digest() string { return hex.EncodeToString(e.sha.Sum(nil)) }

func (e *env) set(name, unit string, v float64) {
	e.mu.Lock()
	e.metrics[name] = metric{Value: v, Unit: unit}
	e.mu.Unlock()
}

// setupRepeats is how often a workload sets up before its timed region;
// setup_s is the median, and the last instance is the one that gets timed.
const setupRepeats = 5

// repeatSetup calls setUp setupRepeats times and returns the seconds each
// took, or nil as soon as one reports failure (having counted it as a failed
// check and released what it built). tearDown releases what the previous call
// built; the caller releases the last. Garbage is collected before each call,
// so every repeat starts from the same heap and the process's peak RSS does
// not depend on when the collector happened to run between them.
func repeatSetup(setUp func() bool, tearDown func()) []float64 {
	var seconds []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			tearDown()
		}
		runtime.GC()
		start := time.Now()
		if !setUp() {
			return nil
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return seconds
}

// chunk is one piece of a timed region: ops units of the workload's work done
// in seconds of host time.
type chunk struct{ ops, seconds float64 }

// medianPace is the seconds one op takes at the timed region's median pace:
// the weighted median of the chunks' seconds per op, each chunk weighted by
// its ops. The host under the benchmark changes speed for seconds at a time
// (README.md, "Noise"); a region's total time moves with the share of it
// spent in such an episode, its median pace does not until episodes fill
// half of it.
func medianPace(chunks []chunk) float64 {
	s := append([]chunk(nil), chunks...)
	sort.Slice(s, func(i, j int) bool { return s[i].seconds*s[j].ops < s[j].seconds*s[i].ops })
	var total, seen float64
	for _, c := range s {
		total += c.ops
	}
	for _, c := range s {
		if seen += c.ops; seen >= total/2 {
			return c.seconds / c.ops
		}
	}
	return 0
}

// marks collects the completion times of a closed-loop phase, from any lane.
type marks struct {
	mu    sync.Mutex
	times []time.Time
}

func (m *marks) mark() {
	now := time.Now()
	m.mu.Lock()
	m.times = append(m.times, now)
	m.mu.Unlock()
}

// chunks cuts the phase that began at start into runs of per consecutive
// completions (fewer only if the whole phase had fewer); completions left
// over at the end are dropped.
func (m *marks) chunks(start time.Time, per int) []chunk {
	m.mu.Lock()
	defer m.mu.Unlock()
	per = max(min(per, len(m.times)), 1)
	sort.Slice(m.times, func(i, j int) bool { return m.times[i].Before(m.times[j]) })
	var out []chunk
	for i := per; i <= len(m.times); i += per {
		out = append(out, chunk{float64(per), m.times[i-1].Sub(start).Seconds()})
		start = m.times[i-1]
	}
	return out
}

// beginTimed marks the start of a tracing-off timed region: from here to
// endToEnd the process's resident set is sampled every rssEvery.
func (e *env) beginTimed() {
	if !e.traced() {
		e.rss = startRSS()
	}
}

// endToEnd records the end-to-end metrics from the timed region's median
// pace: ops_per_s is its inverse and wall_s is what ops units of work take at
// it; elapsed, the region's host seconds as they passed, is printed beside
// wall_s. Workloads call it as the timed region ends, before their output
// checks run, so rss_mb is the timed region's and not that of the checks'
// reference runs. A traced pass measures no end-to-end metric.
func (e *env) endToEnd(setups []float64, wall, opsPerS, elapsed float64) {
	if e.traced() {
		return
	}
	e.set("setup_s", "s", median(setups))
	e.set("wall_s", "s", wall)
	e.set("ops_per_s", "1/s", opsPerS)
	e.set("rss_mb", "MB", median(e.rss.stop()))
	e.rss = nil
	e.mu.Lock()
	m := e.metrics["wall_s"]
	m.Note = fmt.Sprintf("at the median pace; %.3f s elapsed", elapsed)
	e.metrics["wall_s"] = m
	e.mu.Unlock()
}

// setLayer records a per-layer metric under the unit spec.go declares.
func (e *env) setLayer(name string, v float64) {
	ls := layerByName(name)
	if ls == nil {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	e.set(name, ls.Unit, v)
}

// setLayerSamples records the median of samples with its quartiles.
func (e *env) setLayerSamples(name string, samples []float64) {
	ls := layerByName(name)
	if ls == nil {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	if len(samples) == 0 {
		e.check(false, "%s: no samples", name)
		return
	}
	q1, med, q3 := quartiles(samples)
	e.mu.Lock()
	e.metrics[name] = metric{Value: med, Unit: ls.Unit, Q1: &q1, Q3: &q3, N: len(samples)}
	e.mu.Unlock()
}

// setValid flags a recorded metric as (in)valid on this host.
func (e *env) setValid(name string, valid bool, note string) {
	e.mu.Lock()
	m := e.metrics[name]
	m.Valid, m.Note = &valid, note
	e.metrics[name] = m
	e.mu.Unlock()
}

// --- statistics ---

// percentile returns the p-th percentile (0..100) of samples by linear
// interpolation between order statistics.
func percentile(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func quartiles(samples []float64) (q1, med, q3 float64) {
	return percentile(samples, 25), percentile(samples, 50), percentile(samples, 75)
}

func scaled(samples []float64, by float64) []float64 {
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v * by
	}
	return out
}

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

// --- host ---

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// statusMB reads one kB field of /proc/self/status, in MB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rssEvery is the resident-set sampling period of a timed region: a read of
// /proc/self/status costs some 20 us, 0.1 % of one CPU at this rate.
const rssEvery = 20 * time.Millisecond

// rssSampler samples VmRSS on its own goroutine until stopped. The peak
// (VmHWM) of a process whose collector races two 25 MB simulators moves by a
// third from run to run; the median of the samples does not.
type rssSampler struct {
	quit, done chan struct{}
	mb         []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-r.quit:
				r.mb = append(r.mb, statusMB("VmRSS:"))
				return
			case <-tick.C:
				r.mb = append(r.mb, statusMB("VmRSS:"))
			}
		}
	}()
	return r
}

// stop ends the sampling, waits for the goroutine and returns the samples, at
// least one.
func (r *rssSampler) stop() []float64 {
	close(r.quit)
	<-r.done
	return r.mb
}

// fsType names the filesystem holding dir (the store's), by statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func describeHost(tmp string) hostInfo {
	abs, err := filepath.Abs(tmp)
	if err != nil {
		abs = tmp
	}
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StoreFS:    fsType(tmp),
		TmpDir:     abs,
	}
}
