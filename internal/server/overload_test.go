package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// Overload acceptance: a storm well past capacity must shed with 429 +
// Retry-After — never hang, never collapse, never leak — and the
// admission books must reconcile exactly at quiescence.

// newAdmitServer builds a server whose client admits at most slots
// concurrent requests with queue more waiting.
func newAdmitServer(t *testing.T, slots, queue int, deadline time.Duration) *Server {
	t.Helper()
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 11))
	if err != nil {
		t.Fatal(err)
	}
	client := promptcache.New(m, promptcache.WithAdmission(promptcache.AdmissionConfig{
		MaxConcurrent:       slots,
		MaxQueue:            queue,
		InteractiveDeadline: deadline,
	}))
	s := New(client)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	return s
}

// checkGoroutines asserts the goroutine count settles back to around
// its baseline — the overload paths must not strand waiters or writer
// goroutines. Polling bounds scheduler/timer teardown races.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d -> %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
}

// TestOverloadStormShedsWith429: with the server saturated (every slot
// and queue position held by long-running requests), an 8×-capacity
// storm must shed every arrival with 429 + a positive integer
// Retry-After — never hang, never 5xx — the holders all finish 200, the
// admission counters reconcile exactly, and no goroutine outlives the
// storm.
func TestOverloadStormShedsWith429(t *testing.T) {
	const slots, queue = 2, 2
	s := newAdmitServer(t, slots, queue, 0)
	baseline := runtime.NumGoroutine()
	prompt := `<prompt schema="docs"><contract/>Summarize the duties please.</prompt>`

	post := func(maxTokens int) (int, string) {
		body, _ := json.Marshal(CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: maxTokens}})
		req := httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("Retry-After")
	}

	// Saturate: slots+queue holders, each decoding a long reply. Wait
	// until admission confirms the system is full before storming.
	holderCodes := make([]int, slots+queue)
	var holders sync.WaitGroup
	for i := range holderCodes {
		holders.Add(1)
		go func(i int) {
			defer holders.Done()
			// Long enough that the in-process shed storm (microseconds per
			// rejection) lands while these still decode; short enough to
			// keep the race-detector run fast.
			holderCodes[i], _ = post(400)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := s.client.Snapshot().Admission
		if st.Inflight == slots && st.QueueDepth == queue {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.client.Snapshot().Admission; st.Inflight != slots || st.QueueDepth != queue {
		t.Fatalf("saturation never reached: %+v", st)
	}

	// The storm: 8× capacity while the system is full. Sheds are
	// immediate (no queue slot to wait in), so they all land while the
	// holders are still decoding.
	const storm = (slots + queue) * 8
	type result struct {
		code       int
		retryAfter string
	}
	results := make([]result, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, ra := post(4)
			results[i] = result{code, ra}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.code != http.StatusTooManyRequests {
			t.Fatalf("storm request %d: status %d, want 429 from a saturated server", i, r.code)
		}
		secs, err := strconv.Atoi(r.retryAfter)
		if err != nil || secs < 1 {
			t.Fatalf("storm request %d: Retry-After = %q, want positive integer seconds", i, r.retryAfter)
		}
	}
	holders.Wait()
	for i, code := range holderCodes {
		if code != http.StatusOK {
			t.Fatalf("holder %d: status %d, want 200 — overload must not fail admitted work", i, code)
		}
	}
	ok200, shed429 := len(holderCodes), storm

	// Exact reconciliation at quiescence, via the public stats surface:
	// every arrival is admitted or shed (nothing cancels here), and every
	// admit completed and released its slot.
	_, out := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	adm, ok := out["admission"].(map[string]any)
	if !ok {
		t.Fatalf("no admission block: %v", out)
	}
	num := func(class, field string) int {
		return int(adm[class].(map[string]any)[field].(float64))
	}
	admitted := num("interactive", "admitted") + num("batch", "admitted")
	shed := num("interactive", "shed") + num("batch", "shed")
	completed := num("interactive", "completed") + num("batch", "completed")
	canceled := num("interactive", "canceled") + num("batch", "canceled")
	if admitted != ok200 || shed != shed429 || canceled != 0 {
		t.Fatalf("books don't match observed statuses: admitted=%d shed=%d canceled=%d vs %d ok / %d shed",
			admitted, shed, canceled, ok200, shed429)
	}
	if admitted != completed {
		t.Fatalf("admitted %d != completed %d at quiescence", admitted, completed)
	}
	if int(adm["inflight"].(float64)) != 0 || int(adm["queue_depth"].(float64)) != 0 {
		t.Fatalf("slots leaked: %v", adm)
	}
	checkGoroutines(t, baseline)
}

// TestOverloadStreamShedsBeforeSSE: a shed streaming request gets a
// proper 429 + Retry-After status reply, not a broken event stream.
func TestOverloadStreamShedsBeforeSSE(t *testing.T) {
	s := newAdmitServer(t, 1, 1, 0)
	baseline := runtime.NumGoroutine()

	// Saturate: one long completion holds the slot, one fills the queue
	// (MaxTokens 200 keeps them decoding well past the probe below).
	prompt := `<prompt schema="docs"><contract/>Summarize the duties please.</prompt>`
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 200}})
			req := httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body))
			s.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	// Wait until both are visible to admission (1 inflight + 1 queued).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, out := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
		if adm, ok := out["admission"].(map[string]any); ok {
			if adm["inflight"].(float64) >= 1 && adm["queue_depth"].(float64) >= 1 {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 4}})
	req := httptest.NewRequest(http.MethodPost, "/v1/stream", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("stream under overload = %d, want 429 (body %q)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed stream reply lacks Retry-After")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("shed stream reply Content-Type = %q, want a JSON error, not SSE", ct)
	}
	wg.Wait()
	checkGoroutines(t, baseline)
}

// TestDeadlineExpiryMaps504: a configured per-request deadline that
// expires surfaces as ErrDeadline and maps to 504, distinguishable from
// a client disconnect (499).
func TestDeadlineExpiryMaps504(t *testing.T) {
	s := newAdmitServer(t, 4, 4, time.Nanosecond)
	prompt := `<prompt schema="docs"><contract/>Summarize the duties please.</prompt>`
	rec, out := doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 4}})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline = %d %v, want 504", rec.Code, out)
	}
}

// TestStatusForOverloadTaxonomy pins the transport mapping for the two
// new sentinels, including wrapped chains.
func TestStatusForOverloadTaxonomy(t *testing.T) {
	overload := fmt.Errorf("serving: %w", &promptcache.OverloadError{RetryAfter: 3 * time.Second, QueueDepth: 7})
	if got := statusFor(overload); got != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", got)
	}
	if !errors.Is(overload, promptcache.ErrOverloaded) {
		t.Fatal("wrapped OverloadError must satisfy errors.Is(ErrOverloaded)")
	}
	if d, ok := promptcache.RetryAfterHint(overload); !ok || d != 3*time.Second {
		t.Fatalf("RetryAfterHint = %v %v, want 3s true", d, ok)
	}
	if _, ok := promptcache.RetryAfterHint(errors.New("plain")); ok {
		t.Fatal("RetryAfterHint on a plain error must report false")
	}

	deadline := fmt.Errorf("turn failed: %w", fmt.Errorf("%w: context deadline exceeded", promptcache.ErrDeadline))
	if got := statusFor(deadline); got != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want 504", got)
	}

	// writeErr surfaces the hint as a ceil'd, never-zero header.
	rec := httptest.NewRecorder()
	writeErr(rec, http.StatusTooManyRequests, &promptcache.OverloadError{RetryAfter: 1200 * time.Millisecond})
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want ceil(1.2s) = 2", got)
	}
	rec = httptest.NewRecorder()
	writeErr(rec, http.StatusTooManyRequests, &promptcache.OverloadError{RetryAfter: time.Millisecond})
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want floor of 1 second", got)
	}
	rec = httptest.NewRecorder()
	writeErr(rec, http.StatusInternalServerError, errors.New("boom"))
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Fatalf("non-overload error grew a Retry-After: %q", got)
	}
}

// TestCompleteSLOField: the wire slo field routes to the engine's
// classes; an unknown class is a 422, not a silent default.
func TestCompleteSLOField(t *testing.T) {
	s := newAdmitServer(t, 2, 2, 0)
	prompt := `<prompt schema="docs"><contract/>Summarize the duties please.</prompt>`
	for _, slo := range []string{"", "interactive", "batch"} {
		rec, out := doJSON(t, s, http.MethodPost, "/v1/complete", map[string]any{"prompt": prompt, "max_tokens": 4, "slo": slo})
		if rec.Code != http.StatusOK {
			t.Fatalf("slo %q = %d %v", slo, rec.Code, out)
		}
	}
	rec, out := doJSON(t, s, http.MethodPost, "/v1/complete", map[string]any{"prompt": prompt, "max_tokens": 4, "slo": "bulk"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("slo bulk = %d %v, want 422", rec.Code, out)
	}

	_, out = doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	adm := out["admission"].(map[string]any)
	batch := adm["batch"].(map[string]any)
	if batch["admitted"].(float64) != 1 {
		t.Fatalf("batch-class request not accounted to the batch lane: %v", adm)
	}
}

// TestCompleteBatchAdmitsAsBatch: /v1/complete_batch is batch traffic
// by definition, so even an explicit "slo":"interactive" is admitted in
// the batch lane.
func TestCompleteBatchAdmitsAsBatch(t *testing.T) {
	s := newAdmitServer(t, 2, 2, 0)
	rec, out := doJSON(t, s, http.MethodPost, "/v1/complete_batch", map[string]any{
		"prompts": []string{
			`<prompt schema="docs"><contract/>Summarize the duties.</prompt>`,
			`<prompt schema="docs"><rider/>Summarize the rider.</prompt>`,
		},
		"max_tokens": 2,
		"slo":        "interactive",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("complete_batch = %d %v", rec.Code, out)
	}
	adm := s.client.Snapshot().Admission
	if adm.Batch.Admitted != 1 || adm.Interactive.Admitted != 0 {
		t.Fatalf("batch admitted outside the batch lane: %+v", adm)
	}
}
