package server

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// The /v1/stats JSON document is a monitoring contract: dashboards and
// alerts key on its field names and types, so a rename or a type change
// is a breaking change even when every Go test still passes. The golden
// maps below pin the full document — top level, tiers, backend,
// scheduler, admission and speculation blocks. Adding a field requires touching the golden (visible in
// review); removing or renaming one fails the test.

// kindOf names a decoded JSON value's type the way the contract sees it.
func kindOf(v any) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}

func checkBlock(t *testing.T, label string, got map[string]any, want map[string]string) {
	t.Helper()
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		wantKind, ok := want[k]
		if !ok {
			t.Errorf("%s: field %q is not in the stats contract — extend the golden if it is intentional", label, k)
			continue
		}
		if kind := kindOf(got[k]); kind != wantKind {
			t.Errorf("%s: field %q is %s, contract says %s", label, k, kind, wantKind)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: contract field %q missing from response", label, k)
		}
	}
}

var statsTopContract = map[string]string{
	"api_version":      "number",
	"modules_encoded":  "number",
	"modules_reused":   "number",
	"modules_evicted":  "number",
	"modules_reloaded": "number",
	"tokens_encoded":   "number",
	"tokens_reused":    "number",
	"pool_bytes":       "number",
	"open_sessions":    "number",
	"tiers":            "object",
	"backend":          "object",
	"scheduler":        "object",
	"admission":        "object",
	"speculation":      "object",
}

var statsBackendContract = map[string]string{
	"name":      "string",
	"workers":   "number",
	"cpu_arch":  "string",
	"cpu_cores": "number",
	"max_procs": "number",
	"vector":    "string",
}

var statsTiersContract = map[string]string{
	"device_bytes":        "number",
	"host_bytes":          "number",
	"disk_bytes":          "number",
	"disk_modules":        "number",
	"modules_demoted":     "number",
	"modules_promoted":    "number",
	"modules_spilled":     "number",
	"disk_hits":           "number",
	"disk_load_errors":    "number",
	"disk_retries":        "number",
	"tier_account_errors": "number",
}

var statsSchedulerContract = map[string]string{
	"max_batch":       "number",
	"queue_depth":     "number",
	"active_lanes":    "number",
	"lanes_joined":    "number",
	"lanes_retired":   "number",
	"lanes_cancelled": "number",
	"fused_steps":     "number",
	"tokens_decoded":  "number",
	"batch_hist":      "array",
	"tokens_per_sec":  "number",
}

var statsAdmissionContract = map[string]string{
	"max_concurrent": "number",
	"max_queue":      "number",
	"inflight":       "number",
	"queue_depth":    "number",
	"retry_after_ms": "number",
	"interactive":    "object",
	"batch":          "object",
}

var statsAdmissionClassContract = map[string]string{
	"admitted":    "number",
	"shed":        "number",
	"canceled":    "number",
	"completed":   "number",
	"queue_depth": "number",
}

var statsSpeculationContract = map[string]string{
	"enabled":        "bool",
	"observed":       "number",
	"classes":        "number",
	"contexts":       "number",
	"spec_steps":     "number",
	"draft_proposed": "number",
	"draft_accepted": "number",
	"accept_rate":    "number",
}

func TestStatsContractGolden(t *testing.T) {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 11))
	if err != nil {
		t.Fatal(err)
	}
	// Every optional block enabled at once, so the contract covers the
	// full document.
	client := promptcache.New(m,
		promptcache.WithDecodeScheduler(4),
		promptcache.WithDiskTier(t.TempDir(), promptcache.CodecFP32),
		promptcache.WithAdmission(promptcache.AdmissionConfig{}),
		promptcache.WithSpeculation(promptcache.DraftOpts{}),
	)
	s := New(client)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	prompt := `<prompt schema="docs"><contract/>Summarize the duties and list every obligation in order.</prompt>`
	for i := 0; i < 3; i++ {
		rec, out := doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 4}})
		if rec.Code != http.StatusOK {
			t.Fatalf("complete %d: %d %v", i, rec.Code, out)
		}
	}

	rec, out := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	checkBlock(t, "stats", out, statsTopContract)
	if tiers, ok := out["tiers"].(map[string]any); ok {
		checkBlock(t, "tiers", tiers, statsTiersContract)
	}
	// The backend block is unconditional: every deployment runs on some
	// backend, so operators can always attribute latency to it.
	bk, ok := out["backend"].(map[string]any)
	if !ok {
		t.Fatalf("no backend block in /v1/stats: %v", out)
	}
	checkBlock(t, "backend", bk, statsBackendContract)
	if sched, ok := out["scheduler"].(map[string]any); ok {
		checkBlock(t, "scheduler", sched, statsSchedulerContract)
	}
	spec, ok := out["speculation"].(map[string]any)
	if !ok {
		t.Fatalf("no speculation block in /v1/stats with WithSpeculation: %v", out)
	}
	checkBlock(t, "speculation", spec, statsSpeculationContract)
	if adm, ok := out["admission"].(map[string]any); ok {
		checkBlock(t, "admission", adm, statsAdmissionContract)
		for _, class := range []string{"interactive", "batch"} {
			if cls, ok := adm[class].(map[string]any); ok {
				checkBlock(t, "admission."+class, cls, statsAdmissionClassContract)
			}
		}
	}
}

// TestStatsBlockPresence pins the "present exactly when configured"
// contract of the optional blocks: a non-nil block is the only enabled
// flag the document carries. Speculation runs on either decode driver,
// so on its own it shows its block and no scheduler block.
func TestStatsBlockPresence(t *testing.T) {
	optional := []string{"scheduler", "admission", "speculation"}
	cases := []struct {
		name string
		opts []promptcache.Option
		want []string
	}{
		{"bare", nil, nil},
		{"scheduler", []promptcache.Option{promptcache.WithDecodeScheduler(2)}, []string{"scheduler"}},
		{"admission", []promptcache.Option{promptcache.WithAdmission(promptcache.AdmissionConfig{})}, []string{"admission"}},
		{"speculation alone", []promptcache.Option{promptcache.WithSpeculation(promptcache.DraftOpts{})}, []string{"speculation"}},
		{"speculation", []promptcache.Option{promptcache.WithSpeculation(promptcache.DraftOpts{}), promptcache.WithDecodeScheduler(2)},
			[]string{"scheduler", "speculation"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 11))
			if err != nil {
				t.Fatal(err)
			}
			rec, out := doJSON(t, New(promptcache.New(m, tc.opts...)), http.MethodGet, "/v1/stats", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("stats: %d", rec.Code)
			}
			for _, block := range optional {
				_, has := out[block]
				if want := slices.Contains(tc.want, block); has != want {
					t.Errorf("%s block present = %v, want %v", block, has, want)
				}
			}
		})
	}
}
