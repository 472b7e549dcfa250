package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evict"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/tensor"
)

// TestConcurrentServes: the cache must serve many goroutines at once
// (the serving-system use) with every result identical to a solo serve.
// Run with -race to catch synchronization bugs.
func TestConcurrentServes(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	prompts := []string{
		`<prompt schema="travel"><miami/>First question.</prompt>`,
		`<prompt schema="travel"><tokyo/>Second question.</prompt>`,
		`<prompt schema="travel"><trip-plan duration="two days"/><miami/>Third.</prompt>`,
	}
	want := make([][]float32, len(prompts))
	for i, p := range prompts {
		res, err := c.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Logits
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(prompts))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				i := (w + round) % len(prompts)
				res, err := c.Serve(context.Background(), prompts[i], ServeOpts{})
				if err != nil {
					errs <- err
					return
				}
				if d := tensor.MaxAbsDiff(res.Logits, want[i]); d != 0 {
					errs <- fmt.Errorf("worker %d: prompt %d diverged by %v", w, i, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentServesOverlap proves serving is genuinely parallel, not
// merely safe: the model probe holds every prefill at a barrier until
// two are in flight at once. If serves still held the cache lock across
// the prefill, the second could never start and the barrier would time
// out.
func TestConcurrentServesOverlap(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	prompts := [2]string{
		`<prompt schema="travel"><miami/>One.</prompt>`,
		`<prompt schema="travel"><tokyo/>Two.</prompt>`,
	}

	var inflight, peak atomic.Int32
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	c.Model().PrefillProbe = func(delta int) {
		if delta < 0 {
			inflight.Add(-1)
			return
		}
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		arrived <- struct{}{}
		<-release
	}

	errs := make(chan error, len(prompts))
	for i := range prompts {
		go func(i int) {
			_, err := c.Serve(context.Background(), prompts[i], ServeOpts{})
			errs <- err
		}(i)
	}
	for i := 0; i < len(prompts); i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d prefill(s) entered the model after 10s: serving is still serialized", i)
		}
	}
	close(release)
	for range prompts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak in-flight prefills = %d, want >= 2", p)
	}
}

// TestEvictionSkipsPinnedModule: while a serve is mid-prefill its
// modules are pinned; a registration that fills the pool must pick the
// unpinned module as its victim, never the pinned one, and the blocked
// serve must complete with untouched states.
func TestEvictionSkipsPinnedModule(t *testing.T) {
	const schemaA = `<schema name="a">
	  <module name="pin">alpha beta gamma delta epsilon zeta some words</module>
	  <module name="spare">one two three four five six seven eight nine</module>
	</schema>`
	const schemaB = `<schema name="b"><module name="mb">red green blue</module></schema>`

	m, err := model.New(model.LlamaStyle(coreVocab, 91))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, schemaA)
	need := probe.PoolUsed()
	solo, err := probe.Serve(context.Background(), `<prompt schema="a"><pin/>Question.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// FIFO makes "a/pin" (first inserted) the victim of choice, so only
	// pin-awareness can save it. The pool holds exactly schema a; adding
	// b forces one eviction.
	fifo, err := evict.New("fifo")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(m,
		WithPool(memory.NewPool(memory.Device{Name: "hbm", Kind: memory.HBM, Capacity: need})),
		WithEvictionPolicy(fifo),
	)
	mustRegister(t, c, schemaA)

	// Gate only the serve's prefill: it is the first prefill after the
	// probe is installed; the registration's encode prefills pass
	// through. (Not sync.Once — Do would block the later prefills until
	// the gated one finishes.)
	var gated atomic.Bool
	entered := make(chan struct{})
	gate := make(chan struct{})
	m.PrefillProbe = func(delta int) {
		if delta > 0 && gated.CompareAndSwap(false, true) {
			close(entered)
			<-gate
		}
	}
	defer func() { m.PrefillProbe = nil }()

	served := make(chan error, 1)
	var res *ServeResult
	go func() {
		var err error
		res, err = c.Serve(context.Background(), `<prompt schema="a"><pin/>Question.</prompt>`, ServeOpts{})
		served <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("serve never reached the model")
	}

	// The serve is mid-prefill with "a/pin" pinned. Register b: the pool
	// is full, so one of a's modules must go — and it must be "spare".
	if _, err := c.RegisterSchema(schemaB); err != nil {
		t.Fatalf("registration alongside a pinned serve: %v", err)
	}
	c.mu.Lock()
	e := c.schemas["a"]
	pinState, spareState := e.modules["pin"].state, e.modules["spare"].state
	pinHeld := c.pool.Has("a/pin")
	c.mu.Unlock()
	if pinState != stateResident || !pinHeld {
		t.Fatalf("pinned module was evicted mid-serve (state %d, resident %v)", pinState, pinHeld)
	}
	if spareState == stateResident {
		t.Fatal("expected the unpinned module to be the eviction victim")
	}

	close(gate)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(res.Logits, solo.Logits); d != 0 {
		t.Fatalf("serve across pinned eviction diverged by %v", d)
	}
}

// TestConcurrentServePrefetchRegisterBatch hammers every mutating entry
// point at once — Serve, ServeBatch, promotion churn, RegisterSchema,
// Stats — and exists mainly for the race detector.
func TestConcurrentServePrefetchRegisterBatch(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := c.Serve(ctx, `<prompt schema="travel"><miami/>Go.</prompt>`, ServeOpts{}); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			prompts := []string{
				`<prompt schema="travel"><tokyo/>A.</prompt>`,
				`<prompt schema="travel"><miami/>B.</prompt>`,
				`<prompt schema="travel"><trip-plan duration="two days"/><miami/>C.</prompt>`,
			}
			for i := 0; i < 3; i++ {
				if _, _, err := c.ServeBatch(ctx, prompts, ServeOpts{BatchWorkers: 2}); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := serveClose(ctx, c, `<prompt schema="travel"><miami/>x</prompt>`, `<prompt schema="travel"><tokyo/>x</prompt>`); err != nil {
					errs <- err
					return
				}
				c.Stats()
			}
		}()
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				src := fmt.Sprintf(`<schema name="h%d_%d"><module name="m">hammer content %d %d</module></schema>`, w, i, w, i)
				if _, err := c.RegisterSchema(src); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentRegisterAndServe: schema registration racing with serves
// of other schemas must be safe.
func TestConcurrentRegisterAndServe(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf(`<schema name="aux%d"><module name="doc%d">auxiliary content number %d here</module></schema>`, w, w, w)
			if _, err := c.RegisterSchema(src); err != nil {
				errs <- err
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := c.Serve(context.Background(), `<prompt schema="travel"><miami/>Go.</prompt>`, ServeOpts{}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All aux schemas usable afterwards.
	for w := 0; w < 4; w++ {
		p := fmt.Sprintf(`<prompt schema="aux%d"><doc%d/>ok</prompt>`, w, w)
		if _, err := c.Serve(context.Background(), p, ServeOpts{}); err != nil {
			t.Fatal(err)
		}
	}
}
