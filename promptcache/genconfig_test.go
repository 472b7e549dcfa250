package promptcache

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/model"
)

// TestSessionGenConfig: sessions built from a Gen-style request keep the
// config as their per-turn default.
func TestSessionGenConfig(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	s, _, err := c.NewSession(ctx, Request{
		Prompt: `<prompt schema="travel"><tokyo/><user>hello</user></prompt>`,
		Gen:    GenConfig{MaxTokens: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := s.Send(ctx, "tell me more")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tokens) > 5 {
		t.Fatalf("session default MaxTokens ignored: %d tokens", len(resp.Tokens))
	}
}

func TestGenConfigJSONRoundTrip(t *testing.T) {
	on := true
	in := GenConfig{
		MaxTokens: 12,
		StopToken: -1,
		SLO:       SLOBatch,
		Speculation: SpecConfig{
			Enabled:  &on,
			MaxDraft: 6,
		},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out GenConfig
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.MaxTokens != 12 || out.StopToken != -1 || out.SLO != SLOBatch {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	if out.Speculation.Enabled == nil || !*out.Speculation.Enabled || out.Speculation.MaxDraft != 6 {
		t.Fatalf("speculation lost: %+v", out.Speculation)
	}

	// Tri-state: absent "enabled" stays nil, explicit false stays false.
	var unset GenConfig
	if err := json.Unmarshal([]byte(`{"speculation":{"max_draft":2}}`), &unset); err != nil {
		t.Fatal(err)
	}
	if unset.Speculation.Enabled != nil {
		t.Fatalf("absent enabled decoded as %v, want nil", *unset.Speculation.Enabled)
	}
	var off GenConfig
	if err := json.Unmarshal([]byte(`{"speculation":{"enabled":false}}`), &off); err != nil {
		t.Fatal(err)
	}
	if off.Speculation.Enabled == nil || *off.Speculation.Enabled {
		t.Fatal("explicit enabled:false did not survive")
	}

	// The zero config marshals to an empty object: nothing spurious ever
	// reaches the wire from defaulted requests.
	zero, err := json.Marshal(GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if string(zero) != "{}" {
		t.Fatalf("zero GenConfig marshals to %s", zero)
	}

	// SLO wire names round-trip through the SLOClass JSON methods.
	raw, err = json.Marshal(GenConfig{SLO: SLOBatch})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"slo":"batch"}` {
		t.Fatalf("SLO marshals to %s", raw)
	}
	var slo GenConfig
	if err := json.Unmarshal([]byte(`{"slo":"interactive"}`), &slo); err != nil {
		t.Fatal(err)
	}
	if slo.SLO != SLOInteractive {
		t.Fatalf("slo round trip: %v", slo.SLO)
	}
	if err := json.Unmarshal([]byte(`{"slo":"bulk"}`), &slo); err == nil {
		t.Fatal("invalid SLO name decoded silently")
	}
}

// TestGenConfigSpeculationOpts: on the wire, "enabled": true and an
// absent field leave speculation to the engine alike; only false opts
// the generation out. max_draft passes through either way.
func TestGenConfigSpeculationOpts(t *testing.T) {
	opts := func(wire string) model.SpecOpts {
		t.Helper()
		var g GenConfig
		if err := json.Unmarshal([]byte(wire), &g); err != nil {
			t.Fatal(err)
		}
		return g.generateOpts().Speculation
	}
	on := opts(`{"speculation":{"enabled":true,"max_draft":2}}`)
	absent := opts(`{"speculation":{"max_draft":2}}`)
	off := opts(`{"speculation":{"enabled":false,"max_draft":2}}`)
	if want := (model.SpecOpts{MaxDraft: 2}); on != want || absent != want {
		t.Fatalf("enabled true -> %+v, absent -> %+v, want both %+v", on, absent, want)
	}
	if want := (model.SpecOpts{Off: true, MaxDraft: 2}); off != want {
		t.Fatalf("enabled false -> %+v, want %+v", off, want)
	}
	if got := opts(`{}`); got != (model.SpecOpts{}) {
		t.Fatalf("no speculation key -> %+v, want the zero SpecOpts", got)
	}
}

// TestSnapshotShape: the consolidated Snapshot carries the version tag,
// the decode loop's scheduler block always, and the optional blocks
// exactly when their subsystem is on.
func TestSnapshotShape(t *testing.T) {
	c := newClient(t)
	snap := c.Snapshot()
	if snap.APIVersion != StatsAPIVersion {
		t.Fatalf("APIVersion = %d, want %d", snap.APIVersion, StatsAPIVersion)
	}
	if snap.Speculation != nil || snap.Admission != nil {
		t.Fatalf("optional blocks present without their subsystems: %+v", snap)
	}
	if snap.Scheduler == nil {
		t.Fatalf("no scheduler block: %+v", snap)
	}
	if _, err := c.Infer(context.Background(), Request{
		Prompt: `<prompt schema="travel"><miami/><user>hi</user></prompt>`,
		Gen:    GenConfig{MaxTokens: 2},
	}); err != nil {
		t.Fatal(err)
	}
	snap = c.Snapshot()
	if snap.ModulesReused == 0 || snap.TokensReused == 0 {
		t.Fatalf("counters did not move: %+v", snap)
	}
}

// TestInferBatchAdmitsAsBatch: InferBatch rides the batch admission lane
// whatever Gen.SLO says, including its zero (interactive) value.
func TestInferBatchAdmitsAsBatch(t *testing.T) {
	m, err := model.New(model.LlamaStyle(testVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, WithAdmission(AdmissionConfig{}))
	if _, err := c.RegisterSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InferBatch(context.Background(), BatchRequest{
		Prompts: []string{
			`<prompt schema="travel"><miami/><user>Beach day.</user></prompt>`,
			`<prompt schema="travel"><tokyo/><user>Temple walk.</user></prompt>`,
		},
		Gen: GenConfig{MaxTokens: 2},
	}); err != nil {
		t.Fatal(err)
	}
	adm := c.Snapshot().Admission
	if adm.Batch.Admitted != 1 || adm.Interactive.Admitted != 0 {
		t.Fatalf("batch admitted outside the batch lane: %+v", adm)
	}
}
