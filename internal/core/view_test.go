package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/kvcache"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/tensor"
)

// TestServeZeroCopyAliasing is the acceptance check for the zero-copy
// serve path: a cached serve's KV must be a segmented view whose K/V
// buffers alias the encoded modules' own storage — pointer-identical,
// not copied rows.
func TestServeZeroCopyAliasing(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	res, err := c.Serve(context.Background(), `<prompt schema="travel"><miami/>Surf?</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	seq, ok := res.KV.(*kvcache.Seq)
	if !ok {
		t.Fatalf("cached serve KV is %T, want *kvcache.Seq", res.KV)
	}
	if seq.ViewLen() != res.CachedTokens {
		t.Fatalf("view rows %d != cached tokens %d", seq.ViewLen(), res.CachedTokens)
	}
	if seq.Segments() != 2 { // _anon0, miami
		t.Fatalf("segments = %d, want 2", seq.Segments())
	}

	c.mu.Lock()
	anon := c.schemas["travel"].modules["_anon0"].KV
	miami := c.schemas["travel"].modules["miami"].KV
	c.mu.Unlock()

	for l := 0; l < anon.NLayers; l++ {
		segs := seq.AppendSegments(nil, l, seq.ViewLen())
		if len(segs) != 2 {
			t.Fatalf("layer %d: %d segments", l, len(segs))
		}
		if &segs[0].K[0] != &anon.K[l][0] || &segs[0].V[0] != &anon.V[l][0] {
			t.Fatalf("layer %d: segment 0 does not alias _anon0 module storage", l)
		}
		if &segs[1].K[0] != &miami.K[l][0] || &segs[1].V[0] != &miami.V[l][0] {
			t.Fatalf("layer %d: segment 1 does not alias miami module storage", l)
		}
	}
}

// TestSuppliedParamsSplitSegments: supplied parameters must become
// segment splits around the excluded <unk> rows, still aliasing the
// module buffer on both sides — never a row-by-row copy.
func TestSuppliedParamsSplitSegments(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	res, err := c.Serve(context.Background(),
		`<prompt schema="travel"><trip-plan duration="three days"/><miami/>Surf?</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	seq := res.KV.(*kvcache.Seq)
	// _anon0 (1) + trip-plan split around the duration slot (2) + miami (1).
	if seq.Segments() != 4 {
		t.Fatalf("segments = %d, want 4", seq.Segments())
	}
	c.mu.Lock()
	trip := c.schemas["travel"].modules["trip-plan"]
	c.mu.Unlock()
	segs := seq.AppendSegments(nil, 0, seq.ViewLen())
	// Segment 1 is trip-plan's head: starts at the module's first row.
	if &segs[1].K[0] != &trip.KV.K[0][0] {
		t.Fatal("trip-plan head segment does not alias module storage")
	}
	// The excluded duration rows must be absent from the view.
	excluded := map[int]bool{}
	for _, p := range trip.Layout.ParamSegment("duration").Pos {
		excluded[p] = true
	}
	for _, p := range res.KV.Positions()[:seq.ViewLen()] {
		if excluded[p] {
			t.Fatalf("excluded position %d leaked into the view", p)
		}
	}
}

// appendFiltered appends src's rows to dst, skipping rows whose position
// is excluded (supplied parameter buffers) — the materializing reference
// the zero-copy addViews path is compared against.
func appendFiltered(dst, src *kvcache.Cache, excluded map[int]bool) {
	if len(excluded) == 0 {
		dst.AppendCache(src)
		return
	}
	for i, p := range src.Pos {
		if excluded[p] {
			continue
		}
		for l := 0; l < src.NLayers; l++ {
			dst.AppendToken(l, src.KeyRow(l, i), src.ValueRow(l, i))
		}
		dst.AppendPos(p)
	}
}

// TestSeqServeBitIdenticalToMaterialized: the zero-copy view path must
// produce bit-identical logits and generations to the old materializing
// path (appendFiltered into a flat cache), including excluded-parameter
// splits and, on the ALiBi architecture, position gaps from skipped
// modules.
func TestSeqServeBitIdenticalToMaterialized(t *testing.T) {
	for _, cfg := range []model.Config{
		model.LlamaStyle(coreVocab, 77),
		model.MPTStyle(coreVocab, 77), // ALiBi: distances from explicit position IDs
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			c := newTestCache(t, cfg)
			mustRegister(t, c, travelSchema)
			// Supplied param (excluded rows) + skipped union member
			// (position gap between trip-plan and miami).
			src := `<prompt schema="travel"><trip-plan duration="three days"/><miami/>Surf spots?</prompt>`
			prompt, err := pml.ParsePrompt(src)
			if err != nil {
				t.Fatal(err)
			}

			viaSeq, err := c.ServeParsed(context.Background(), prompt, ServeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			defer viaSeq.Close()

			// Reference: the pre-refactor path — copy every module row
			// through appendFiltered into one flat cache, then prefill.
			c.mu.Lock()
			plan, err := c.planServeLocked(prompt, ServeOpts{})
			c.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			flat := c.m.NewCache(plan.layout.TotalLen + 64)
			for _, part := range plan.parts {
				appendFiltered(flat, part.states(), plan.excluded)
			}
			newToks, newPos, err := c.gatherNewTokens(plan.layout, prompt, plan.bindings, plan.included)
			if err != nil {
				t.Fatal(err)
			}
			viaFlat, err := c.finishServe(context.Background(), plan, flat, newToks, newPos)
			c.unpinModules(plan.pinned)
			if err != nil {
				t.Fatal(err)
			}

			if d := tensor.MaxAbsDiff(viaSeq.Logits, viaFlat.Logits); d != 0 {
				t.Fatalf("view vs materialized logits differ by %v", d)
			}
			gSeq, err := c.Generate(context.Background(), viaSeq, model.GenerateOpts{MaxTokens: 8})
			if err != nil {
				t.Fatal(err)
			}
			gFlat, err := c.Generate(context.Background(), viaFlat, model.GenerateOpts{MaxTokens: 8})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gSeq) != fmt.Sprint(gFlat) {
				t.Fatalf("view generation %v != materialized %v", gSeq, gFlat)
			}
		})
	}
}

// TestSeqPermutationInvariance: §3.4's order independence holds for
// segmented views exactly as it does for flat concatenation — stitching
// the same modules' views in reversed order moves the suffix logits by
// at most float noise.
func TestSeqPermutationInvariance(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	e := c.schemas["travel"]

	names := []string{"_anon0", "trip-plan", "miami"}
	forward := c.m.NewSeq(32)
	for _, n := range names {
		addViews(forward, e.modules[n].KV, nil)
	}
	reverse := c.m.NewSeq(32)
	for i := len(names) - 1; i >= 0; i-- {
		addViews(reverse, e.modules[names[i]].KV, nil)
	}
	suffix := c.Tokenizer().Encode("tell me about the beaches")
	pos := make([]int, len(suffix))
	for i := range pos {
		pos[i] = e.layout.TotalLen + i
	}
	lf, err := c.Model().Prefill(suffix, pos, forward)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := c.Model().Prefill(suffix, pos, reverse)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(lf, lr); d > 1e-4 {
		t.Fatalf("segment order changed logits by %v", d)
	}
}

// TestCloseReleasesPins: pins now live until result close, not prefill
// end — a served module must be pin-protected while the result is open
// and evictable after Close.
func TestCloseReleasesPins(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	res, err := c.Serve(context.Background(), `<prompt schema="travel"><miami/>Surf?</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pinsOf := func(name string) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.schemas["travel"].modules[name].pins
	}
	if pinsOf("miami") != 1 {
		t.Fatalf("miami pins = %d while result open, want 1", pinsOf("miami"))
	}
	res.Close()
	res.Close() // idempotent
	if pinsOf("miami") != 0 {
		t.Fatalf("miami pins = %d after Close, want 0", pinsOf("miami"))
	}
}

// TestMaterializeDetachesFromModules: Materialize must hand back an
// owned flat cache (usable after the modules are evicted) and release
// the pins immediately.
func TestMaterializeDetachesFromModules(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	res, err := c.Serve(context.Background(), `<prompt schema="travel"><miami/>Surf?</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), res.Logits...)
	res.Materialize()
	if _, ok := res.KV.(*kvcache.Cache); !ok {
		t.Fatalf("materialized KV is %T, want *kvcache.Cache", res.KV)
	}
	c.mu.Lock()
	if p := c.schemas["travel"].modules["miami"].pins; p != 0 {
		c.mu.Unlock()
		t.Fatalf("pins = %d after Materialize, want 0", p)
	}
	// Simulate eviction wiping the module's states out from under us.
	c.schemas["travel"].modules["miami"].KV = nil
	c.mu.Unlock()

	// The materialized result must keep decoding correctly.
	got, err := c.Continue(context.Background(), res, "and the food?")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Logits) != len(want) {
		t.Fatalf("continue after materialize returned %d logits", len(got.Logits))
	}
}

// TestConcurrentSeqReadersUnderEviction shares one schema's pinned
// modules across ≥4 concurrent zero-copy readers — each serving,
// checking bit-exactness against a reference, decoding a few tokens and
// closing — while a churn goroutine keeps eviction pressure on a pool
// sized for a fraction of the working set. Run under -race in CI.
func TestConcurrentSeqReadersUnderEviction(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 55))
	if err != nil {
		t.Fatal(err)
	}
	mkSchema := func(name, word string) string {
		return fmt.Sprintf("<schema name=%q><module name=\"doc\">%s</module></schema>",
			name, strings.Repeat(word+" ", 40))
	}
	// Room for roughly three 40-token modules: the pinned reader schema
	// plus two churn schemas, so churn registrations always evict.
	modBytes := 40 * m.Cfg.BytesPerCachedToken(4)
	pool := memory.NewPool(memory.Device{Name: "hbm", Kind: memory.HBM, Capacity: 3*modBytes + modBytes/2})
	c := NewCache(m, WithPool(pool))

	mustRegister(t, c, mkSchema("ra", "harbor"))
	churnSchemas := []string{mkSchema("rb", "castle"), mkSchema("rc", "garden"), mkSchema("rd", "bridge")}
	for _, s := range churnSchemas {
		mustRegister(t, c, s)
	}

	const prompt = `<prompt schema="ra"><doc/>summarize</prompt>`
	ref, err := c.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	refLogits := append([]float32(nil), ref.Logits...)
	ref.Close()

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			name := []string{"rb", "rc", "rd"}[i%3]
			if _, err := c.Serve(context.Background(),
				fmt.Sprintf(`<prompt schema=%q><doc/>churn</prompt>`, name), ServeOpts{}); err != nil {
				t.Errorf("churn serve: %v", err)
				return
			}
			mustRegister(t, c, churnSchemas[i%3])
			i++
		}
	}()

	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := c.Serve(context.Background(), prompt, ServeOpts{})
				if err != nil {
					t.Errorf("reader serve: %v", err)
					return
				}
				if d := tensor.MaxAbsDiff(res.Logits, refLogits); d != 0 {
					t.Errorf("reader logits differ by %v under eviction pressure", d)
				}
				if _, err := c.Generate(context.Background(), res, model.GenerateOpts{MaxTokens: 3}); err != nil {
					t.Errorf("reader generate: %v", err)
				}
				res.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()
}
