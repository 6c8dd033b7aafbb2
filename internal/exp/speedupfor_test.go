package exp

import (
	"sync"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

func quickCfg() config.Config {
	cfg := config.Baseline16()
	cfg.Run.WarmupCycles = 5_000
	cfg.Run.MeasureCycles = 20_000
	cfg.S1.UpdatePeriod = 2_000
	return cfg
}

// TestStatsCountOneExecutionCore: SpeedupFor's shared runs are never cached
// (labels do not identify a placement) and its alone runs are cached per
// application, all on the runner it is called on.
func TestStatsCountOneExecutionCore(t *testing.T) {
	r := NewRunner(Options{})
	cfg := quickCfg()
	w, err := workload.Get(13)
	if err != nil {
		t.Fatal(err)
	}
	half, err := w.Halve()
	if err != nil {
		t.Fatal(err)
	}
	distinct := int64(len(half.Apps))
	if _, err := r.SpeedupFor(cfg, half); err != nil {
		t.Fatal(err)
	}
	first := r.Stats()
	if first.Executed != 3+distinct || first.Runs != first.Executed+first.CacheHits {
		t.Errorf("first SpeedupFor: %+v, want %d executed (3 shared + %d alone)", first, 3+distinct, distinct)
	}
	if _, err := r.SpeedupFor(cfg, half); err != nil {
		t.Fatal(err)
	}
	second := r.Stats()
	if d := second.Executed - first.Executed; d != 3 {
		t.Errorf("second SpeedupFor executed %d simulations, want only the 3 shared runs", d)
	}
	if second.Runs-first.Runs != 3+(second.CacheHits-first.CacheHits) {
		t.Errorf("second SpeedupFor: alone requests not all cache hits: %+v -> %+v", first, second)
	}
}

// TestAloneIPCSingleflight: concurrent callers of one alone point share one
// simulation — and with warmup sharing on, that run is one warmup plus one
// fork. Run under -race.
func TestAloneIPCSingleflight(t *testing.T) {
	cfg := quickCfg()
	app := trace.MustLookup("milc")
	for _, share := range []bool{false, true} {
		r := NewRunner(Options{ShareWarmup: share})
		var wg sync.WaitGroup
		ipcs := make([]float64, 8)
		for i := range ipcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := r.AloneIPC(cfg, app)
				if err != nil {
					t.Error(err)
				}
				ipcs[i] = v
			}()
		}
		wg.Wait()
		for _, v := range ipcs {
			if v != ipcs[0] || v <= 0 {
				t.Fatalf("share=%v: callers saw different alone IPCs: %v", share, ipcs)
			}
		}
		st := r.Stats()
		if st.Runs != 8 || st.Executed != 1 || st.CacheHits != 7 {
			t.Errorf("share=%v: %+v, want 8 requests, 1 executed, 7 cache hits", share, st)
		}
		if want := map[bool]int64{false: 0, true: 1}[share]; st.Warmups != want || st.Forked != want {
			t.Errorf("share=%v: %d warmups, %d forked, want %d each", share, st.Warmups, st.Forked, want)
		}
	}
}

// TestAloneIPCKeyedByParameters: a custom profile that borrows a built-in
// name gets its own alone run, not the built-in one's cached result, while
// the built-in profile keeps the key every Table 2 run and stored result has.
func TestAloneIPCKeyedByParameters(t *testing.T) {
	cfg := quickCfg()
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = 2_000, 6_000
	mcf := trace.MustLookup("mcf")
	light := mcf
	light.MPKI /= 20
	if got := aloneLabel(mcf); got != "alone-mcf" {
		t.Errorf("built-in mcf labelled %q, want alone-mcf", got)
	}
	if aloneLabel(light) == aloneLabel(mcf) {
		t.Fatalf("both profiles labelled %q", aloneLabel(mcf))
	}
	r := NewRunner(Options{})
	heavy, err := r.AloneIPC(cfg, mcf)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := r.AloneIPC(cfg, light)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRunner(Options{}).AloneIPC(cfg, light)
	if err != nil {
		t.Fatal(err)
	}
	if shared != fresh || shared == heavy {
		t.Errorf("light mcf reads %v after the built-in one (%v), %v on a fresh runner", shared, heavy, fresh)
	}
	if st := r.Stats(); st.Executed != 2 {
		t.Errorf("%d simulations for two different profiles", st.Executed)
	}
}
