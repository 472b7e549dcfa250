package server

import (
	"net/http"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// TestSpeculationOverWire: the speculation block of the wire surface
// end to end — a -speculate-style server trains its draft source on
// served traffic, reports acceptance through /v1/stats, and honors the
// per-request {"speculation": {"enabled": false}} opt-out, all with
// byte-identical reply text.
func TestSpeculationOverWire(t *testing.T) {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 11))
	if err != nil {
		t.Fatal(err)
	}
	client := promptcache.New(m, promptcache.WithSpeculation(promptcache.DraftOpts{}))
	s := New(client)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	body := map[string]any{
		"prompt":     `<prompt schema="docs"><contract/>Summarize the duties.</prompt>`,
		"max_tokens": 12,
	}
	complete := func(b map[string]any) string {
		t.Helper()
		rec, out := doJSON(t, s, http.MethodPost, "/v1/complete", b)
		if rec.Code != http.StatusOK {
			t.Fatalf("complete: %d %v", rec.Code, out)
		}
		return out["text"].(string)
	}
	// A transition is proposed once it has been seen twice: the first
	// two replies train the draft, the third speculates.
	want := complete(body)
	for i := 2; i <= 3; i++ {
		if got := complete(body); got != want {
			t.Fatalf("reply %d diverges: %q vs %q", i, got, want)
		}
	}

	specBlock := func() map[string]any {
		t.Helper()
		rec, out := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("stats: %d", rec.Code)
		}
		blk, ok := out["speculation"].(map[string]any)
		if !ok {
			t.Fatalf("no speculation block: %v", out)
		}
		return blk
	}
	blk := specBlock()
	if blk["enabled"] != true || blk["spec_steps"].(float64) == 0 || blk["draft_accepted"].(float64) == 0 {
		t.Fatalf("warm request never speculated: %v", blk)
	}

	// Per-request opt-out through the embedded GenConfig wire key.
	before := blk["spec_steps"].(float64)
	optOut := map[string]any{
		"prompt":      body["prompt"],
		"max_tokens":  12,
		"speculation": map[string]any{"enabled": false},
	}
	if got := complete(optOut); got != want {
		t.Fatalf("opted-out reply diverges: %q vs %q", got, want)
	}
	if after := specBlock()["spec_steps"].(float64); after != before {
		t.Fatalf("opted-out request still speculated: %v -> %v spec steps", before, after)
	}
}
