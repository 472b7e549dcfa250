package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/mining"
	"repro/internal/model"
	"repro/internal/tensor"
)

// minedPrompt is a prompt whose instruction text is long enough for the
// default-free mining thresholds used in these tests, and which supplies
// a parameter argument so the mined prefix covers excluded-position rows
// too (the trickiest part of the splice).
const minedPrompt = `<prompt schema="travel"><trip-plan duration="three days"/><miami/>List the best surf spots and beach towns to visit on a relaxed coastal trip.</prompt>`

func miningCache(t *testing.T, cfg model.Config, extra ...Option) *Cache {
	t.Helper()
	opts := append([]Option{withMining(mining.Config{MinHits: 2, MinTokens: 4})}, extra...)
	c := newTestCache(t, cfg, opts...)
	mustRegister(t, c, travelSchema)
	return c
}

// serveClose serves each prompt and releases its pins: the promotion
// and eviction churn a real workload causes.
func serveClose(ctx context.Context, c *Cache, prompts ...string) error {
	for _, p := range prompts {
		res, err := c.Serve(ctx, p, ServeOpts{})
		if err != nil {
			return err
		}
		res.Close()
	}
	return nil
}

// serveMined serves minedPrompt and returns the closed-over result;
// the caller owns Close.
func serveMined(t *testing.T, c *Cache) *ServeResult {
	t.Helper()
	res, err := c.Serve(context.Background(), minedPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMinedServeBitIdentical is the golden test: serves of an identical
// prompt before and after a mined-prefix hit must produce bit-identical
// logits and token streams, on both the RoPE and ALiBi (explicit
// position gap) architectures.
func TestMinedServeBitIdentical(t *testing.T) {
	for _, cfg := range []model.Config{
		model.LlamaStyle(coreVocab, 77),
		model.MPTStyle(coreVocab, 77), // ALiBi: distances from explicit position IDs
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			c := miningCache(t, cfg)
			cold := serveMined(t, c) // observation 1: no mined state exists yet
			defer cold.Close()
			warm := serveMined(t, c) // observation 2: nominates + promotes
			warm.Close()
			if got := c.Snapshot().Mining.Promotions; got < 1 {
				t.Fatalf("promotions = %d after two identical serves", got)
			}

			hit := serveMined(t, c) // must splice the mined prefix
			defer hit.Close()
			st := c.Snapshot().Mining
			if st.Hits < 1 || st.HitTokens < 1 {
				t.Fatalf("mined stats after third serve: hits=%d hitTokens=%d", st.Hits, st.HitTokens)
			}
			if hit.NewTokens >= cold.NewTokens {
				t.Fatalf("mined hit prefilled %d tokens, cold serve %d", hit.NewTokens, cold.NewTokens)
			}
			if !strings.Contains(strings.Join(hit.Modules, ","), minedPrefixTag) {
				t.Fatalf("mined hit did not report the module: %v", hit.Modules)
			}

			if d := tensor.MaxAbsDiff(cold.Logits, hit.Logits); d != 0 {
				t.Fatalf("mined-hit logits differ from cold serve by %v", d)
			}
			gCold, err := c.Generate(context.Background(), cold, model.GenerateOpts{MaxTokens: 8})
			if err != nil {
				t.Fatal(err)
			}
			gHit, err := c.Generate(context.Background(), hit, model.GenerateOpts{MaxTokens: 8})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gCold) != fmt.Sprint(gHit) {
				t.Fatalf("mined generation %v != cold %v", gHit, gCold)
			}
		})
	}
}

func TestMiningStatsSnapshot(t *testing.T) {
	c := llamaCache(t)
	if st := c.Snapshot().Mining; st != nil {
		t.Fatalf("mining block without the option: %+v", st)
	}

	mc := miningCache(t, model.LlamaStyle(coreVocab, 77))
	for i := 0; i < 3; i++ {
		serveMined(t, mc).Close()
	}
	st := mc.Snapshot().Mining
	if st == nil || st.Observed != 3 || st.Promotions < 1 || st.LiveModules < 1 || st.Hits < 1 {
		t.Fatalf("mining stats = %+v", st)
	}
}

// TestMinedPrefixDiffersByArguments: the serving class captures excluded
// positions, so prompts differing only in a supplied argument must not
// share a mined prefix (their streams differ anyway), while the mined
// module stays class-correct.
func TestMinedPrefixDiffersByArguments(t *testing.T) {
	c := miningCache(t, model.LlamaStyle(coreVocab, 77))
	other := `<prompt schema="travel"><trip-plan duration="two weeks"/><miami/>List the best surf spots and beach towns to visit on a relaxed coastal trip.</prompt>`
	for i := 0; i < 3; i++ {
		serveMined(t, c).Close()
	}
	if st := c.Snapshot().Mining; st.Hits < 1 {
		t.Fatalf("no mined hit on repeated identical prompt: %+v", st)
	}
	before := c.Snapshot().Mining.Hits
	res, err := c.Serve(context.Background(), other, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if after := c.Snapshot().Mining.Hits; after != before {
		t.Fatalf("different-argument prompt hit a mined prefix (%d -> %d)", before, after)
	}
}

// TestMinedBatchServe: batch members observe and splice mined prefixes
// like any serve. On one P the pool has one worker, so members are served
// in order: the solo serve and member 0 promote the prefix and the rest
// must hit it.
func TestMinedBatchServe(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := miningCache(t, model.LlamaStyle(coreVocab, 77))
	solo := serveMined(t, c)
	defer solo.Close()

	prompts := []string{minedPrompt, minedPrompt, minedPrompt, minedPrompt}
	results, _, err := c.ServeBatch(context.Background(), prompts, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if d := tensor.MaxAbsDiff(solo.Logits, res.Logits); d != 0 {
			t.Fatalf("batch[%d] logits differ from solo serve by %v", i, d)
		}
		res.Close()
	}
	if st := c.Snapshot().Mining; st.Promotions < 1 || st.Hits < 1 {
		t.Fatalf("batch traffic not mined: %+v", st)
	}
}

// TestMinedModuleEvictionWaterfall: a mined module under memory pressure
// demotes to the host tier, spills to disk, and reads back on a hit —
// with logits still bit-identical.
func TestMinedModuleEvictionWaterfall(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	// Size the pool from an unbounded twin so the mined module plus the
	// schema's working set cannot all stay resident.
	probe := NewCache(m, withMining(mining.Config{MinHits: 2, MinTokens: 4}))
	if _, err := probe.RegisterSchema(travelSchema); err != nil {
		t.Fatal(err)
	}
	need := probe.Snapshot().PoolBytes

	c := NewCache(m,
		withMining(mining.Config{MinHits: 2, MinTokens: 4}),
		WithDeviceCapacity(need+need/4),
		WithDiskTier(t.TempDir(), CodecFP32),
	)
	mustRegister(t, c, travelSchema)

	cold := serveMined(t, c)
	defer cold.Close()
	serveMined(t, c).Close() // promotes
	if c.Snapshot().Mining.Promotions < 1 {
		t.Fatal("no promotion under memory pressure")
	}
	// Churn the cache so the mined module is evicted (spilling to disk).
	if err := serveClose(context.Background(), c, `<prompt schema="travel"><trip-plan/><tokyo/>x</prompt>`, `<prompt schema="travel"><miami/>x</prompt>`); err != nil {
		t.Fatal(err)
	}
	hit := serveMined(t, c)
	defer hit.Close()
	st := c.Snapshot().Mining
	if st.Hits < 1 {
		t.Fatalf("no mined hit after eviction churn: %+v", st)
	}
	if d := tensor.MaxAbsDiff(cold.Logits, hit.Logits); d != 0 {
		t.Fatalf("post-eviction mined hit differs from cold serve by %v", d)
	}
}

// TestMinedDemotionGC: with a short half-life, a mined module that stops
// matching traffic is garbage-collected and stops being reported live.
func TestMinedDemotionGC(t *testing.T) {
	c := newTestCache(t, model.LlamaStyle(coreVocab, 77),
		withMining(mining.Config{MinHits: 2, MinTokens: 4, HalfLife: 4}))
	mustRegister(t, c, travelSchema)
	serveMined(t, c).Close()
	serveMined(t, c).Close()
	if c.Snapshot().Mining.Promotions < 1 {
		t.Fatal("no promotion")
	}
	// Unrelated traffic decays the promoted node cold.
	for i := 0; i < 64 && c.Snapshot().Mining.Demotions == 0; i++ {
		src := fmt.Sprintf(`<prompt schema="travel"><tokyo/>Unrelated question number %d about temples and food markets.</prompt>`, i)
		res, err := c.Serve(context.Background(), src, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	st := c.Snapshot().Mining
	if st.Demotions < 1 {
		t.Fatalf("cold mined module never GC'd: %+v", st)
	}
	if st.LiveModules != int(st.Promotions)-st.Demotions {
		t.Fatalf("live %d != promotions %d - demotions %d", st.LiveModules, st.Promotions, st.Demotions)
	}
}

// TestMinedSaveAllRoundTrip: SaveAll persists mined modules with their
// prefix; OpenDir with mining adopts them (first serve is a mined hit,
// bit-identical); OpenDir without mining skips them with a counted stat.
func TestMinedSaveAllRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(m, withMining(mining.Config{MinHits: 2, MinTokens: 4}))
	if _, err := c.RegisterSchema(travelSchema); err != nil {
		t.Fatal(err)
	}
	cold := serveMined(t, c)
	serveMined(t, c).Close()
	if c.Snapshot().Mining.Promotions < 1 {
		t.Fatal("no promotion before snapshot")
	}
	if err := c.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	coldLogits := append([]float32(nil), cold.Logits...)
	cold.Close()

	restored, err := OpenDir(m, dir, withMining(mining.Config{MinHits: 2, MinTokens: 4}))
	if err != nil {
		t.Fatal(err)
	}
	hit := serveMined(t, restored)
	defer hit.Close()
	st := restored.Snapshot().Mining
	if st.Hits < 1 || st.LiveModules < 1 {
		t.Fatalf("restored cache did not hit the persisted mined module: %+v", st)
	}
	if d := tensor.MaxAbsDiff(coldLogits, hit.Logits); d != 0 {
		t.Fatalf("restored mined hit differs from pre-snapshot serve by %v", d)
	}

	plain, err := OpenDir(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Stats().MinedSnapshotSkipped; got < 1 {
		t.Fatalf("mining-disabled restore did not count skipped mined modules: %d", got)
	}
	res := serveMined(t, plain)
	defer res.Close()
	if d := tensor.MaxAbsDiff(coldLogits, res.Logits); d != 0 {
		t.Fatalf("mining-disabled restore serves differently by %v", d)
	}

	// A manifest listing a mined entry twice restores it once and skips
	// the repeat (counted), so the disk tier holds its blob once.
	data, err := os.ReadFile(manifestPath(dir))
	var man diskManifest
	if err == nil {
		err = json.Unmarshal(data, &man)
	}
	if err != nil {
		t.Fatal(err)
	}
	ms := &man.Schemas[0]
	ms.Mined = append(ms.Mined, ms.Mined...)
	if data, err = json.Marshal(man); err == nil {
		err = os.WriteFile(manifestPath(dir), data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	twice, err := OpenDir(m, dir, withMining(mining.Config{MinHits: 2, MinTokens: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if skipped, live := twice.Stats().MinedSnapshotSkipped, twice.Snapshot().Mining.LiveModules; skipped != len(ms.Mined)/2 || live != len(ms.Mined)/2 {
		t.Fatalf("a mined entry listed twice: %d live, %d skipped, want %d each", live, skipped, len(ms.Mined)/2)
	}
	assertTierGauges(t, twice)
}

// TestMinedReRegisterSchemaDropsModules: replacing a schema forgets its
// observed traffic and its mined modules.
func TestMinedReRegisterSchemaDropsModules(t *testing.T) {
	c := miningCache(t, model.LlamaStyle(coreVocab, 77))
	serveMined(t, c).Close()
	serveMined(t, c).Close()
	if c.Snapshot().Mining.LiveModules < 1 {
		t.Fatal("no live mined module")
	}
	mustRegister(t, c, travelSchema)
	st := c.Snapshot().Mining
	if st.LiveModules != 0 || st.Classes != 0 {
		t.Fatalf("re-register left mined state behind: %+v", st)
	}
	// Traffic after the re-register mines from scratch, without error.
	serveMined(t, c).Close()
	serveMined(t, c).Close()
	if c.Snapshot().Mining.Promotions < 2 {
		t.Fatalf("re-mining after re-register failed: %+v", c.Snapshot().Mining)
	}
}

// TestMinedConcurrentServes hammers mining with concurrent identical and
// divergent serves plus eviction churn; run under -race this is the
// issue's race-cleanliness gate. Every result must stay bit-identical to
// the cold serve of its prompt.
func TestMinedConcurrentServes(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	if _, err := probe.RegisterSchema(travelSchema); err != nil {
		t.Fatal(err)
	}
	need := probe.Snapshot().PoolBytes
	c := NewCache(m,
		withMining(mining.Config{MinHits: 2, MinTokens: 4}),
		WithDeviceCapacity(need+need/3),
		WithHostTier(need),
		WithDiskTier(t.TempDir(), CodecFP32),
	)
	mustRegister(t, c, travelSchema)

	prompts := []string{
		minedPrompt,
		`<prompt schema="travel"><tokyo/>Plan three days of temples, markets and quiet gardens for a first visit.</prompt>`,
	}
	golden := make([][]float32, len(prompts))
	for i, src := range prompts {
		res, err := c.Serve(context.Background(), src, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		golden[i] = append([]float32(nil), res.Logits...)
		res.Close()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				idx := (w + i) % len(prompts)
				res, err := c.Serve(context.Background(), prompts[idx], ServeOpts{})
				if err != nil {
					errs <- err
					return
				}
				if d := tensor.MaxAbsDiff(golden[idx], res.Logits); d != 0 {
					errs <- fmt.Errorf("worker %d serve %d: logits drift %v", w, i, d)
					res.Close()
					return
				}
				res.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Snapshot().Mining; st.Promotions < 1 || st.Hits < 1 {
		t.Fatalf("concurrent traffic not mined: %+v", st)
	}
}

// TestMinedRestoreBadCodecLeavesNoGhost: a restored mined entry that
// fails validation (here, an unknown codec) is skipped and counted
// before the observer adopts its prefix — the observer must never report
// a live mined module the cache has not registered.
func TestMinedRestoreBadCodecLeavesNoGhost(t *testing.T) {
	dir := t.TempDir()
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	mine := withMining(mining.Config{MinHits: 2, MinTokens: 4})
	c := NewCache(m, mine)
	mustRegister(t, c, travelSchema)
	serveMined(t, c).Close()
	serveMined(t, c).Close() // promotes
	if err := c.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var man diskManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Schemas) != 1 || len(man.Schemas[0].Mined) != 1 {
		t.Fatalf("snapshot should hold one mined module: %+v", man.Schemas)
	}
	man.Schemas[0].Mined[0].Codec = "bogus"
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	restored, err := OpenDir(m, dir, mine)
	if err != nil {
		t.Fatal(err)
	}
	st := restored.Snapshot().Mining
	if st.LiveModules != 0 || st.SnapshotSkipped != 1 {
		t.Fatalf("bad-codec mined entry: live %d, skipped %d; want 0 and 1", st.LiveModules, st.SnapshotSkipped)
	}
	restored.mu.Lock()
	registered := 0
	for _, em := range restored.store.modules {
		if em.Mined != nil {
			registered++
		}
	}
	restored.mu.Unlock()
	if st.LiveModules != registered {
		t.Fatalf("observer reports %d live mined modules, cache registers %d", st.LiveModules, registered)
	}
}
