package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tensor"
)

// Encoding runs outside Cache.mu: registration encodes a schema's modules
// concurrently and installs them under one short hold, and a serve that
// needs a dropped module re-encodes it off the lock. These tests park an
// encode inside the model (PrefillProbe) and show that other serves still
// plan and complete meanwhile, and that the concurrent encode leaves the
// same books and bits as a sequential one.

// encodeWait bounds every wait in these tests, so a serve stuck behind
// the lock fails the test instead of hanging it.
const encodeWait = 10 * time.Second

// parkFirstPrefill installs a probe that parks the first prefill to enter
// the model after the call until the returned release runs; later
// prefills pass through. entered closes when the parked one arrives; the
// model must be the test's own.
// (Not sync.Once — Do would block the later prefills until the parked one
// finishes.)
func parkFirstPrefill(t *testing.T, m *model.Model) (entered <-chan struct{}, release func()) {
	t.Helper()
	var parked atomic.Bool
	in := make(chan struct{})
	gate := make(chan struct{})
	m.PrefillProbe = func(delta int) {
		if delta > 0 && parked.CompareAndSwap(false, true) {
			close(in)
			<-gate
		}
	}
	var released atomic.Bool
	release = func() {
		if released.CompareAndSwap(false, true) {
			close(gate)
		}
	}
	// The probe stays installed: a parked goroutine may still be inside
	// the model when the test ends, and passes through once released.
	t.Cleanup(release)
	return in, release
}

// serveWithin serves prompt and fails the test if it does not complete
// within encodeWait.
func serveWithin(t *testing.T, c *Cache, prompt, why string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		res, err := c.Serve(context.Background(), prompt, ServeOpts{})
		if err == nil {
			res.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(encodeWait):
		t.Fatalf("serve did not complete within %v while %s: it waits on the cache lock", encodeWait, why)
	}
}

const encodeSchemaB = `<schema name="b">
  <module name="x">one two three four five six seven eight</module>
  <module name="y">red green blue cyan magenta yellow black white</module>
</schema>`

// TestEncodeOffLockRegistration: while schema b's registration is parked
// inside one of its module encodes, a serve of the registered travel
// schema plans, prefills and completes. b is absent until its install,
// then serves.
func TestEncodeOffLockRegistration(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	entered, release := parkFirstPrefill(t, c.Model())
	registered := make(chan error, 1)
	go func() {
		_, err := c.RegisterSchema(encodeSchemaB)
		registered <- err
	}()
	select {
	case <-entered:
	case <-time.After(encodeWait):
		t.Fatal("registration never reached the model")
	}
	serveWithin(t, c, `<prompt schema="travel"><miami/>Go.</prompt>`, "a registration is parked in its encode")
	if _, err := c.Layout("b"); !errors.Is(err, ErrUnknownSchema) {
		t.Fatalf("schema b visible before its install: %v", err)
	}
	release()
	if err := <-registered; err != nil {
		t.Fatal(err)
	}
	serveWithin(t, c, `<prompt schema="b"><x/><y/>Now.</prompt>`, "nothing is parked")
	assertNoPins(t, c)
}

// TestEncodeOffLockReencode: a serve needing a dropped module is parked
// in its re-encode; a serve of another schema still plans and completes.
// Released, the parked serve installs the module, pinned and resident,
// and its output equals a serve from the registered states.
func TestEncodeOffLockReencode(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	mustRegister(t, c, encodeSchemaB)
	want, err := c.Serve(context.Background(), declaredTierPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	c.mu.Lock()
	evictKeyLocked(t, &c.store, "travel/tokyo") // no host or disk tier: dropped
	if st := c.store.modules["travel/tokyo"].state; st != stateDropped {
		c.mu.Unlock()
		t.Fatalf("travel/tokyo in state %d, want dropped", st)
	}
	before := c.stats
	c.mu.Unlock()

	entered, release := parkFirstPrefill(t, c.Model())
	type served struct {
		logits []float32
		err    error
	}
	done := make(chan served, 1)
	go func() {
		res, err := c.Serve(context.Background(), declaredTierPrompt, ServeOpts{})
		if err != nil {
			done <- served{err: err}
			return
		}
		res.Close()
		done <- served{logits: res.Logits}
	}()
	select {
	case <-entered:
	case <-time.After(encodeWait):
		t.Fatal("the serve never reached its re-encode")
	}
	serveWithin(t, c, `<prompt schema="b"><x/>Then.</prompt>`, "another serve is parked in a re-encode")
	release()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !sameBits(want.Logits, got.logits) {
		t.Fatalf("serve over the re-encoded module differs by %v", tensor.MaxAbsDiff(want.Logits, got.logits))
	}
	st := c.Stats()
	if st.ModulesReloaded != before.ModulesReloaded+1 || st.ModulesEncoded != before.ModulesEncoded+1 {
		t.Errorf("want one re-encode: before %+v, after %+v", before, st)
	}
	c.mu.Lock()
	em := c.store.modules["travel/tokyo"]
	resident := em.state == stateResident && c.store.device.members["travel/tokyo"] != nil
	device, _ := tierLedgerLocked(c)
	used := c.store.device.used
	c.mu.Unlock()
	if !resident {
		t.Errorf("re-encoded module not resident: state %d", em.state)
	}
	if device != used {
		t.Errorf("pool holds %d bytes, resident modules %d", used, device)
	}
	assertNoPins(t, c)
}

// TestEncodeConcurrentMatchesSequential registers the same schemas —
// scaffolds included — on a one-worker backend, which encodes inline one
// module at a time, and on a four-worker one, which encodes concurrently.
// The encode counters, pool bytes and every module's state bits must be
// equal, and the ledger exact: pool bytes == Σ resident modules, no pin.
func TestEncodeConcurrentMatchesSequential(t *testing.T) {
	caches := make([]*Cache, 2)
	for i, workers := range []int{1, 4} {
		caches[i] = llamaCache(t, WithBackend(tensor.NewBackend(workers)))
		mustRegister(t, caches[i], travelSchema)
		mustRegister(t, caches[i], scaffoldChurnSchema)
	}
	seq, conc := caches[0], caches[1]
	a, b := seq.Snapshot(), conc.Snapshot()
	if a.ModulesEncoded != b.ModulesEncoded || a.TokensEncoded != b.TokensEncoded || a.PoolBytes != b.PoolBytes {
		t.Fatalf("sequential encoded %d modules / %d tokens into %d bytes, concurrent %d / %d / %d",
			a.ModulesEncoded, a.TokensEncoded, a.PoolBytes, b.ModulesEncoded, b.TokensEncoded, b.PoolBytes)
	}
	for key, em := range seq.store.modules {
		other := conc.store.modules[key]
		for l := range em.KV.K {
			if !sameBits(em.KV.K[l], other.KV.K[l]) || !sameBits(em.KV.V[l], other.KV.V[l]) {
				t.Fatalf("%s layer %d: states differ between the sequential and concurrent encode", key, l)
			}
		}
	}
	for _, c := range caches {
		c.mu.Lock()
		device, _ := tierLedgerLocked(c)
		used := c.store.device.used
		c.mu.Unlock()
		if device != used {
			t.Errorf("pool holds %d bytes, resident modules %d", used, device)
		}
		assertNoPins(t, c)
	}
}

// TestRegisterFailedReplacementKeepsSchema: replacing a schema with one
// whose module cannot fit the device pool fails with ErrCapacity before
// the old entry is dropped, so the old schema keeps serving. The module
// is either larger than the pool itself, or larger than what eviction
// can free while another schema's module is pinned by an open serve.
func TestRegisterFailedReplacementKeepsSchema(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := int64(2 * m.Cfg.NLayers * m.Cfg.KVDim() * 4)
	words := func(n int) string { return strings.Repeat("word ", n) }
	for _, tc := range []struct {
		name        string
		held        int // words of another schema's module an open serve pins; 0 for none
		replacement int // words of the replacement module
	}{
		{"larger than the pool", 0, 80},
		{"larger than the unpinned room", 24, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(m, WithDeviceCapacity(40*rowBytes))
			if tc.held > 0 {
				mustRegister(t, c, `<schema name="other"><module name="big">`+words(tc.held)+`</module></schema>`)
				hold, err := c.Serve(context.Background(), `<prompt schema="other"><big/>Go.</prompt>`, ServeOpts{})
				if err != nil {
					t.Fatal(err)
				}
				defer hold.Close()
			}
			mustRegister(t, c, `<schema name="s"><module name="m">a short module</module></schema>`)
			const prompt = `<prompt schema="s"><m/>Go.</prompt>`
			want, err := c.Serve(context.Background(), prompt, ServeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want.Close()
			before := c.Snapshot().PoolBytes

			long := `<schema name="s"><module name="m">` + words(tc.replacement) + `</module></schema>`
			if _, err := c.RegisterSchema(long); !errors.Is(err, ErrCapacity) {
				t.Fatalf("replacement with a %d-word module in a 40-row pool: %v, want ErrCapacity", tc.replacement, err)
			}
			got, err := c.Serve(context.Background(), prompt, ServeOpts{})
			if err != nil {
				t.Fatalf("the replaced schema no longer serves: %v", err)
			}
			got.Close()
			if !sameBits(want.Logits, got.Logits) {
				t.Fatalf("old schema's serve differs by %v after the failed replacement", tensor.MaxAbsDiff(want.Logits, got.Logits))
			}
			if after := c.Snapshot().PoolBytes; after != before {
				t.Errorf("pool holds %d bytes after the failed replacement, %d before", after, before)
			}
			if tc.held == 0 {
				assertNoPins(t, c)
				return
			}
			// The check refuses only what cannot fit: a replacement
			// within the room still registers past the pinned module.
			mustRegister(t, c, `<schema name="s"><module name="m">`+words(8)+`</module></schema>`)
		})
	}
}
