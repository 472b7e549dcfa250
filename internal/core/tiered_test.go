package core

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// TestTieredDemotionAvoidsReEncode: with a host pool behind the tight
// primary pool, evicted modules demote instead of dropping, and reuse
// promotes them back with zero re-encoding (§4.1 two-tier).
func TestTieredDemotionAvoidsReEncode(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 501)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	tiered := NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithHostTier(0),
	)
	mustRegister(t, tiered, travelSchema)
	st := tiered.Stats()
	if st.ModulesDemoted == 0 {
		t.Fatalf("expected demotions, got %+v", st)
	}
	if st.ModulesReloaded != 0 {
		t.Fatalf("demotion should avoid re-encodes, got %d", st.ModulesReloaded)
	}

	// Serving everything cycles modules through promote/demote but never
	// re-encodes, and outputs match the unconstrained cache.
	prompts := []string{
		`<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`,
		`<prompt schema="travel"><miami/>Surf?</prompt>`,
		`<prompt schema="travel"><trip-plan duration="two days"/><miami/>Plan.</prompt>`,
	}
	encodes := tiered.Stats().ModulesEncoded
	for _, p := range prompts {
		want, err := probe.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tiered.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
			t.Fatalf("tiered serve differs by %v", d)
		}
	}
	st = tiered.Stats()
	if st.ModulesEncoded != encodes {
		t.Fatalf("tiered cache re-encoded: %d -> %d", encodes, st.ModulesEncoded)
	}
	if st.ModulesPromoted == 0 {
		t.Fatal("expected promotions on reuse")
	}
}

// TestTieredHostPoolCapBounded: a capped host pool falls back to dropping
// when full, and everything still serves correctly.
func TestTieredHostPoolCapBounded(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 521)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	tiered := NewCache(m,
		WithDeviceCapacity(need/3+1),
		WithHostTier(need/4),
	)
	mustRegister(t, tiered, travelSchema)
	st := tiered.Stats()
	if st.ModulesEvicted == 0 {
		t.Fatal("expected evictions")
	}
	res, err := tiered.Serve(context.Background(), `<prompt schema="travel"><tokyo/>Plan.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := probe.Serve(context.Background(), `<prompt schema="travel"><tokyo/>Plan.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(res.Logits, want.Logits); d > 1e-4 {
		t.Fatalf("capped tiered serve differs by %v", d)
	}
}

// TestTieredReRegisterFreesHostPool: re-registering a schema releases
// host-pool reservations of demoted modules.
func TestTieredReRegisterFreesHostPool(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 531)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	tiered := NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithHostTier(0),
	)
	mustRegister(t, tiered, travelSchema)
	used := tiered.Snapshot().Tiers.HostBytes
	if used == 0 {
		t.Fatal("host pool should hold demoted modules")
	}
	mustRegister(t, tiered, travelSchema)
	if now := tiered.Snapshot().Tiers.HostBytes; now > used {
		t.Fatalf("host pool grew on re-register: %d -> %d", used, now)
	}
}
