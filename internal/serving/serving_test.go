package serving

import (
	"testing"

	"repro/internal/evict"
	"repro/internal/hw"
)

func baseConfig() Config {
	return Config{
		Device:            hw.RTX4090(),
		Model:             hw.Llama7B(),
		Modules:           DefaultUniverse(60, 200, 4000, 5),
		Requests:          800,
		ModulesPerRequest: 2,
		SuffixTokens:      100,
		ZipfS:             1.1,
		Seed:              42,
	}
}

// run replays cfg's generated stream.
func run(cfg Config) (Stats, error) {
	trace, err := GenerateTrace(cfg)
	if err != nil {
		return Stats{}, err
	}
	return RunTrace(cfg, trace)
}

func TestRunValidation(t *testing.T) {
	if _, err := run(Config{}); err == nil {
		t.Fatal("expected error without device/modules")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.GPUCapacity = 8 << 30
	cfg.Policy = evict.NewLRU()
	a, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = evict.NewLRU()
	b, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanTTFT != b.MeanTTFT || a.HBMHits != b.HBMHits {
		t.Fatal("simulation not deterministic")
	}
}

func TestCachedBeatsBaseline(t *testing.T) {
	cfg := baseConfig()
	cfg.GPUCapacity = 8 << 30
	st, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Speedup() <= 1.5 {
		t.Fatalf("speedup %.2f too small", st.Speedup())
	}
	if st.MeanTTFT > st.P99TTFT || st.P50TTFT > st.P99TTFT {
		t.Fatal("percentile ordering broken")
	}
}

func TestHostOnlyStillBeatsBaseline(t *testing.T) {
	// The paper's CPU-memory configuration: no HBM tier, every module
	// ships over PCIe — still far faster than recomputing (§5.2.1).
	cfg := baseConfig()
	cfg.GPUCapacity = 0
	st, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.HBMHits != 0 {
		t.Fatal("host-only must have no HBM hits")
	}
	if st.Speedup() <= 1.2 {
		t.Fatalf("host-only speedup %.2f too small", st.Speedup())
	}
}

func TestCapacityMonotonicity(t *testing.T) {
	// More HBM → higher hit rate → lower mean TTFT.
	cfg := baseConfig()
	var prevHit float64 = -1
	var prevTTFT float64 = 1e18
	for _, gib := range []int64{1, 8, 64} {
		c := cfg
		c.GPUCapacity = gib << 30
		c.Policy = evict.NewLRU()
		st, err := run(c)
		if err != nil {
			t.Fatal(err)
		}
		if st.HitRate() < prevHit-0.02 {
			t.Fatalf("hit rate fell with more capacity: %.3f after %.3f", st.HitRate(), prevHit)
		}
		if float64(st.MeanTTFT) > prevTTFT*1.02 {
			t.Fatalf("mean TTFT rose with more capacity")
		}
		prevHit = st.HitRate()
		prevTTFT = float64(st.MeanTTFT)
	}
}

func TestUnboundedIsLowerBound(t *testing.T) {
	results, err := ComparePolicies(baseConfig(), 4<<30)
	if err != nil {
		t.Fatal(err)
	}
	lower := results["unbounded-hbm"]
	upper := results["host-only"]
	for _, name := range evict.Names() {
		st := results[name]
		if st.MeanTTFT < lower.MeanTTFT {
			t.Fatalf("%s beat the unbounded lower bound", name)
		}
		if st.MeanTTFT > upper.MeanTTFT {
			t.Fatalf("%s (%v) worse than host-only (%v)", name, st.MeanTTFT, upper.MeanTTFT)
		}
	}
	if lower.HitRate() < 0.9 {
		t.Fatalf("unbounded hit rate %.2f should approach 1 after warmup", lower.HitRate())
	}
}

func TestPolicyDifferentiation(t *testing.T) {
	// Under a tight HBM budget with skewed sizes and popularity, the
	// frequency/size-aware policies should not lose to FIFO, and results
	// must differ somewhere (policies actually engage).
	results, err := ComparePolicies(baseConfig(), 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	if results["gdsf"].HitRate()+0.03 < results["fifo"].HitRate() {
		t.Fatalf("gdsf %.3f far below fifo %.3f", results["gdsf"].HitRate(), results["fifo"].HitRate())
	}
	allEqual := true
	first := results["lru"].HBMHits
	for _, name := range evict.Names() {
		if results[name].HBMHits != first {
			allEqual = false
		}
		if results[name].Evictions == 0 {
			t.Fatalf("%s: no evictions under tight capacity", name)
		}
	}
	if allEqual {
		t.Fatal("all policies identical — replacement never mattered")
	}
	for name, st := range results {
		t.Logf("%-14s hit=%.3f mean=%v p99=%v speedup=%.1fx uploads=%dMiB",
			name, st.HitRate(), st.MeanTTFT, st.P99TTFT, st.Speedup(), st.BytesUploaded>>20)
	}
}

func TestDefaultUniverse(t *testing.T) {
	mods := DefaultUniverse(100, 100, 5000, 9)
	if len(mods) != 100 {
		t.Fatalf("len = %d", len(mods))
	}
	seen := map[string]bool{}
	for _, m := range mods {
		if m.Tokens < 100 || m.Tokens > 5000 {
			t.Fatalf("module %s tokens %d out of range", m.Name, m.Tokens)
		}
		if seen[m.Name] {
			t.Fatal("duplicate module name")
		}
		seen[m.Name] = true
	}
	// Log-uniform: spread should cover more than a 4x range.
	min, max := mods[0].Tokens, mods[0].Tokens
	for _, m := range mods {
		if m.Tokens < min {
			min = m.Tokens
		}
		if m.Tokens > max {
			max = m.Tokens
		}
	}
	if max < 4*min {
		t.Fatalf("sizes not spread: [%d, %d]", min, max)
	}
}
