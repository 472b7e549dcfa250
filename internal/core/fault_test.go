package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Fault-injection acceptance for the disk tier: injected slow IO,
// transient read errors, corruption and write failures must degrade
// serving gracefully — retried, re-encoded or dropped — never fail a
// request or change its logits.

// spillingPair builds a probe cache (unconstrained, the bit-exact
// reference) and a faulty cache whose device pool holds only half the
// schema, forcing spills to a disk tier wired to the given injector.
func spillingPair(t *testing.T, seed uint64, inj *faultinject.Injector) (probe, faulty *Cache) {
	t.Helper()
	cfg := model.LlamaStyle(coreVocab, seed)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe = NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes
	faulty = NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithDiskTier(t.TempDir(), CodecFP32),
		WithFaultInjection(inj),
	)
	mustRegister(t, faulty, travelSchema)
	if faulty.Stats().ModulesSpilled == 0 {
		t.Fatal("setup needs disk spills")
	}
	return probe, faulty
}

// allModulePrompts covers every schema module, so at least one serve is
// guaranteed to read back a spilled blob.
var allModulePrompts = []string{
	`<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`,
	`<prompt schema="travel"><miami/>Surf?</prompt>`,
}

// serveBoth runs prompt on both caches and fails unless the faulty
// cache's logits are bit-identical to the probe's.
func serveBoth(t *testing.T, probe, faulty *Cache, prompt string) {
	t.Helper()
	want, err := probe.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, err := faulty.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatalf("serve under injected faults must not fail: %v", err)
	}
	defer got.Close()
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Fatalf("faulted serve differs from reference by %v", d)
	}
}

// TestFaultTransientReadRetried: a single injected transient read error
// is absorbed by the backoff retry — the serve succeeds bit-identically,
// the recovery is counted as a retry, and nothing is recorded as a load
// error or re-encoded.
func TestFaultTransientReadRetried(t *testing.T) {
	inj := faultinject.New(1)
	probe, faulty := spillingPair(t, 643, inj)
	encodes := faulty.Stats().ModulesEncoded
	inj.Set(FaultPointDiskRead, faultinject.Rule{Err: faultinject.ErrTransient, Times: 1})
	for _, p := range allModulePrompts {
		serveBoth(t, probe, faulty, p)
	}
	st := faulty.Stats()
	if inj.Fired(FaultPointDiskRead) == 0 {
		t.Fatal("injected fault never fired — the serves did not read disk")
	}
	if st.DiskRetries == 0 {
		t.Fatalf("recovered blip not counted as retry: %+v", st)
	}
	if st.DiskLoadErrors != 0 {
		t.Fatalf("a recovered transient must not count as a load error: %+v", st)
	}
	if st.ModulesEncoded != encodes {
		t.Fatalf("transient blip caused re-encode: %d -> %d", encodes, st.ModulesEncoded)
	}
}

// TestFaultTransientOutageDegrades: a transient error that outlasts
// every retry degrades that serve to a re-encode — counted as a load
// error — but the blob survives on disk (it was busy, not bad).
func TestFaultTransientOutageDegrades(t *testing.T) {
	inj := faultinject.New(2)
	probe, faulty := spillingPair(t, 647, inj)
	blobs := faulty.Snapshot().Tiers.DiskModules
	// Outlast the retry budget for exactly one module's read.
	inj.Set(FaultPointDiskRead, faultinject.Rule{Err: faultinject.ErrTransient, Times: diskReadAttempts})
	for _, p := range allModulePrompts {
		serveBoth(t, probe, faulty, p)
	}
	st := faulty.Stats()
	if st.DiskLoadErrors == 0 {
		t.Fatalf("exhausted retries must count as a load error: %+v", st)
	}
	if st.DiskRetries != diskReadAttempts-1 {
		t.Fatalf("retries = %d, want %d (full backoff budget)", st.DiskRetries, diskReadAttempts-1)
	}
	// The unread blob was busy, not bad: it must survive (serving churn
	// may spill additional modules, so the count can only grow).
	if faulty.Snapshot().Tiers.DiskModules < blobs {
		t.Fatalf("transient outage deleted blobs: %d -> %d", blobs, faulty.Snapshot().Tiers.DiskModules)
	}
}

// TestFaultCorruptBlobReEncodes: injected corruption invalidates the
// blob — deleted, never retried — and the serve transparently re-encodes
// the module with bit-identical logits.
func TestFaultCorruptBlobReEncodes(t *testing.T) {
	inj := faultinject.New(3)
	probe, faulty := spillingPair(t, 653, inj)
	encodes := faulty.Stats().ModulesEncoded
	inj.Set(FaultPointDiskRead, faultinject.Rule{Err: faultinject.ErrCorrupt, Times: 1})
	for _, p := range allModulePrompts {
		serveBoth(t, probe, faulty, p)
	}
	st := faulty.Stats()
	if st.DiskLoadErrors == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	if st.DiskRetries != 0 {
		t.Fatalf("proven corruption must never be retried, got %d retries", st.DiskRetries)
	}
	if st.ModulesEncoded <= encodes {
		t.Fatal("corrupt module was not re-encoded")
	}
	// Blob deletion itself is pinned by TestCorruptDiskBlobFallsBack
	// (real on-disk corruption); eviction churn during these serves makes
	// the raw entry count uninformative here.
}

// TestFaultWriteFailureFallsToDrop: when every spill write fails
// (injected ENOSPC), eviction falls through to dropping states — serves
// still succeed via re-encode and the books stay clean.
func TestFaultWriteFailureFallsToDrop(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 659)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	inj := faultinject.New(4)
	inj.Set(FaultPointDiskWrite, faultinject.Rule{Err: faultinject.ErrNoSpace})
	faulty := NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithDiskTier(t.TempDir(), CodecFP32),
		WithFaultInjection(inj),
	)
	mustRegister(t, faulty, travelSchema)
	st := faulty.Stats()
	if inj.Fired(FaultPointDiskWrite) == 0 {
		t.Fatal("write fault never fired — no spill was attempted")
	}
	if st.ModulesSpilled != 0 {
		t.Fatalf("spills succeeded under full-disk injection: %+v", st)
	}
	if st.ModulesEvicted == 0 {
		t.Fatalf("setup needs evictions: %+v", st)
	}
	for _, p := range allModulePrompts {
		serveBoth(t, probe, faulty, p)
	}
	assertTierGauges(t, faulty)
}

// TestFaultSlowReadDelaysNotFails: a delay-only rule models slow IO —
// the serve blocks for the injected latency and then succeeds normally.
func TestFaultSlowReadDelaysNotFails(t *testing.T) {
	inj := faultinject.New(5)
	probe, faulty := spillingPair(t, 661, inj)
	const stall = 30 * time.Millisecond
	inj.Set(FaultPointDiskRead, faultinject.Rule{Delay: stall, Times: 1})
	start := time.Now()
	for _, p := range allModulePrompts {
		serveBoth(t, probe, faulty, p)
	}
	if inj.Fired(FaultPointDiskRead) == 0 {
		t.Fatal("delay rule never fired")
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("injected %v stall not observed: serves took %v", stall, elapsed)
	}
	st := faulty.Stats()
	if st.DiskLoadErrors != 0 || st.DiskRetries != 0 {
		t.Fatalf("pure delay must not count as error or retry: %+v", st)
	}
}
