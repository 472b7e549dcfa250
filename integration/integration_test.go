package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/longbench"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/promptlang"
	"repro/internal/server"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

const vocab = tokenizer.WordBase + 2048

func newModel(t *testing.T, seed uint64) *model.Model {
	t.Helper()
	m, err := model.New(model.LlamaStyle(vocab, seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPromptProgramToGeneration runs the full §3.2.4 path: a Python-like
// prompt program compiles to PML, registers, serves with parameters and
// unions, and generates.
func TestPromptProgramToGeneration(t *testing.T) {
	program := `
schema kiosk:
  system "You are a museum kiosk."
  def visit_plan(hours: 3):
    emit "Plan a visit lasting"
    arg hours
    emit "with short breaks."
  choose:
    when paintings:
      emit "The paintings wing shows portraits and landscapes."
    when fossils:
      emit "The fossils wing shows dinosaurs and ammonites."
`
	pmlSrc, err := promptlang.CompileToPML(program)
	if err != nil {
		t.Fatal(err)
	}
	client := promptcache.New(newModel(t, 1))
	info, err := client.RegisterSchema(pmlSrc)
	if err != nil {
		t.Fatalf("compiled schema rejected: %v\n%s", err, pmlSrc)
	}
	if info.Name != "kiosk" {
		t.Fatalf("schema name %q", info.Name)
	}
	res, err := client.Infer(context.Background(), promptcache.Request{
		Prompt: `<prompt schema="kiosk">
	  <visit_plan hours="two hours"/>
	  <fossils/>
	  <user>What should I see first?</user>
	</prompt>`,
		Gen: promptcache.GenConfig{MaxTokens: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedTokens == 0 || res.NewTokens == 0 {
		t.Fatalf("reuse accounting: %+v", res)
	}
	if strings.TrimSpace(res.Text) == "" {
		t.Fatal("empty generation")
	}
	// Union exclusivity holds for compiled schemas too.
	if _, err := client.Infer(context.Background(), promptcache.Request{
		Prompt: `<prompt schema="kiosk"><paintings/><fossils/>x</prompt>`,
	}); err == nil {
		t.Fatal("union clash should fail")
	}
}

// TestLongBenchPipeline: workload generation → schema registration →
// paired cached/baseline inference → metric scoring, for one dataset of
// each category.
func TestLongBenchPipeline(t *testing.T) {
	client := promptcache.New(newModel(t, 2))
	ctx := context.Background()
	picks := []string{"NarrativeQA", "GovReport", "TriviaQA", "Passage Retrieval", "LCC", "HotpotQA"}
	for _, name := range picks {
		d, ok := longbench.ByName(name)
		if !ok {
			t.Fatalf("dataset %q missing", name)
		}
		w := longbench.Generate(d, longbench.GenConfig{Seed: 3, NumSamples: 2, PoolDocs: 3, DocSentences: 5})
		if _, err := client.RegisterSchema(w.Schema); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range w.Samples {
			cres, err := client.Infer(ctx, promptcache.Request{Prompt: s.Prompt, Gen: promptcache.GenConfig{MaxTokens: 8}})
			if err != nil {
				t.Fatalf("%s serve: %v", name, err)
			}
			bres, err := client.Infer(ctx, promptcache.Request{Prompt: s.Prompt, Baseline: true, PrefillOnly: true})
			if err != nil {
				t.Fatalf("%s baseline: %v", name, err)
			}
			if cres.CachedTokens == 0 {
				t.Fatalf("%s: nothing reused", name)
			}
			if cos := tensor.CosineSimilarity(cres.Logits, bres.Logits); cos < 0.3 {
				t.Fatalf("%s: cached/baseline cosine %v implausibly low", name, cos)
			}
			// Metrics accept arbitrary generations.
			_ = metrics.F1(cres.Text, s.Reference)
			_ = metrics.RougeL(cres.Text, s.Reference)
		}
	}
}

// TestServerWithQuantizedEvictingCache drives the HTTP API over a cache
// configured with a tight device tier and an int8 disk tier — the full
// §6 feature set composed: evicted modules spill quantized and later
// serves read them back.
func TestServerWithQuantizedEvictingCache(t *testing.T) {
	m := newModel(t, 4)
	// Probe footprint with an unconstrained cache first.
	probe := core.NewCache(m)
	w := longbench.Generate(mustDataset(t, "MultiNews"), longbench.GenConfig{Seed: 9, PoolDocs: 4, DocSentences: 6})
	if _, err := probe.RegisterSchema(w.Schema); err != nil {
		t.Fatal(err)
	}
	tight := promptcache.New(m,
		promptcache.WithDiskTier(t.TempDir(), promptcache.CodecInt8),
		promptcache.WithDeviceCapacity(probe.Snapshot().PoolBytes/2+1),
	)
	srv := httptest.NewServer(server.New(tight))
	defer srv.Close()

	post := func(path string, body any) map[string]any {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if e, ok := out["error"]; ok {
			t.Fatalf("server error: %v", e)
		}
		return out
	}
	post("/schemas", server.SchemaRequest{PML: w.Schema})
	for _, s := range w.Samples[:4] {
		out := post("/v1/complete", server.CompleteRequest{Prompt: s.Prompt, GenConfig: promptcache.GenConfig{MaxTokens: 6}})
		if out["cached_tokens"].(float64) <= 0 {
			t.Fatalf("no reuse through server: %v", out)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["modules_evicted"].(float64) == 0 {
		t.Fatalf("tight pool should evict: %v", stats)
	}
	tiers := stats["tiers"].(map[string]any)
	if tiers["modules_spilled"].(float64) == 0 || tiers["disk_hits"].(float64) == 0 {
		t.Fatalf("eviction should spill to the int8 disk tier and reuse should read it back: %v", tiers)
	}
}

func mustDataset(t *testing.T, name string) longbench.Dataset {
	t.Helper()
	d, ok := longbench.ByName(name)
	if !ok {
		t.Fatalf("dataset %q missing", name)
	}
	return d
}

// TestBatchEndpointSharing: HTTP batch completion over a LongBench
// workload where samples share pool documents.
func TestBatchEndpointSharing(t *testing.T) {
	srv := httptest.NewServer(server.New(promptcache.New(newModel(t, 5))))
	defer srv.Close()

	d := mustDataset(t, "HotpotQA")
	w := longbench.Generate(d, longbench.GenConfig{Seed: 11, PoolDocs: 3, DocsPerSample: 2, NumSamples: 6, DocSentences: 5})
	body, _ := json.Marshal(server.SchemaRequest{PML: w.Schema})
	if _, err := srv.Client().Post(srv.URL+"/schemas", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	var prompts []string
	for _, s := range w.Samples {
		prompts = append(prompts, s.Prompt)
	}
	breq, _ := json.Marshal(server.BatchRequest{Prompts: prompts, GenConfig: promptcache.GenConfig{MaxTokens: 4}})
	resp, err := srv.Client().Post(srv.URL+"/v1/complete_batch", "application/json", bytes.NewReader(breq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(prompts) {
		t.Fatalf("results = %d", len(out.Results))
	}
	// 6 samples drawing 2 docs each from a pool of 3 must share.
	if out.SharedModules == 0 || out.SavingsPct <= 0 {
		t.Fatalf("no sharing over shared pool: %+v", out)
	}
}

// TestCrossSchemaIsolation: same module name in two schemas must resolve
// independently.
func TestCrossSchemaIsolation(t *testing.T) {
	client := promptcache.New(newModel(t, 6))
	ctx := context.Background()
	for i, body := range []string{"first corpus of words here", "totally different other corpus"} {
		src := fmt.Sprintf(`<schema name="s%d"><module name="doc">%s</module></schema>`, i, body)
		if _, err := client.RegisterSchema(src); err != nil {
			t.Fatal(err)
		}
	}
	a, err := client.Infer(ctx, promptcache.Request{Prompt: `<prompt schema="s0"><doc/>question</prompt>`, PrefillOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Infer(ctx, promptcache.Request{Prompt: `<prompt schema="s1"><doc/>question</prompt>`, PrefillOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(a.Logits, b.Logits) < 1e-6 {
		t.Fatal("different schemas' docs produced identical logits — cross-schema leakage")
	}
}

// TestSessionsOverHTTP drives the full multi-turn path end to end:
// create a session over /v1/sessions, advance it two turns, verify the
// server-held KV state grows, then delete it.
func TestSessionsOverHTTP(t *testing.T) {
	srv := httptest.NewServer(server.New(promptcache.New(newModel(t, 7))))
	defer srv.Close()

	schema := `<schema name="chat"><module name="doc">The lighthouse keeper logs every passing ship and storm in a leather journal.</module></schema>`
	body, _ := json.Marshal(server.SchemaRequest{PML: schema})
	if _, err := srv.Client().Post(srv.URL+"/schemas", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}

	post := func(path string, payload any) (int, map[string]any) {
		t.Helper()
		b, _ := json.Marshal(payload)
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, created := post("/v1/sessions", server.SessionRequest{
		Prompt:    `<prompt schema="chat"><doc/><user>What does the keeper log?</user></prompt>`,
		GenConfig: promptcache.GenConfig{MaxTokens: 6},
	})
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["session_id"].(string)
	if created["text"] == "" || created["cached_tokens"].(float64) <= 0 {
		t.Fatalf("create response %v", created)
	}

	var prev float64
	for i, text := range []string{"How often do storms pass?", "And the ships?"} {
		code, out := post("/v1/sessions/"+id+"/send", server.SendRequest{Text: text})
		if code != http.StatusOK {
			t.Fatalf("send %d = %d %v", i, code, out)
		}
		st := out["session_tokens"].(float64)
		if st <= prev {
			t.Fatalf("session KV should grow across turns: %v -> %v", prev, st)
		}
		prev = st
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+id, nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	code, _ = post("/v1/sessions/"+id+"/send", server.SendRequest{Text: "still there?"})
	if code != http.StatusNotFound {
		t.Fatalf("send after delete = %d", code)
	}
}

// TestSerializeParseFixpointOnGeneratedSchemas: every LongBench-generated
// schema survives a serialize→parse→serialize round trip unchanged.
func TestSerializeParseFixpointOnGeneratedSchemas(t *testing.T) {
	for _, d := range longbench.Figure8()[:4] {
		w := longbench.Generate(d, longbench.GenConfig{Seed: 13, PoolDocs: 2, DocSentences: 4})
		s1, err := pml.ParseSchema(w.Schema)
		if err != nil {
			t.Fatal(err)
		}
		out1 := pml.Serialize(s1)
		s2, err := pml.ParseSchema(out1)
		if err != nil {
			t.Fatalf("%s: serialized schema does not parse: %v", d.Name, err)
		}
		if out2 := pml.Serialize(s2); out2 != out1 {
			t.Fatalf("%s: serialize/parse not a fixpoint", d.Name)
		}
	}
}
