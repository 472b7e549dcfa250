package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 11))
	if err != nil {
		t.Fatal(err)
	}
	return New(promptcache.New(m))
}

func doJSON(t *testing.T, s *Server, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	// The mux's automatic 405 replies are plain text; everything the
	// server itself writes is JSON.
	if rec.Body.Len() > 0 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, out
}

const testSchema = `<schema name="docs">
  <module name="contract">The tenant pays rent monthly and waters the plants weekly.</module>
  <module name="rider">The rider adds parking rights for one vehicle.</module>
</schema>`

func TestHealth(t *testing.T) {
	s := newServer(t)
	rec, out := doJSON(t, s, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("health = %d %v", rec.Code, out)
	}
}

func TestRegisterAndListSchemas(t *testing.T) {
	s := newServer(t)
	rec, out := doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	if rec.Code != http.StatusOK {
		t.Fatalf("register = %d %v", rec.Code, out)
	}
	if out["name"] != "docs" || out["modules"].(float64) != 2 {
		t.Fatalf("register response %v", out)
	}
	_, list := doJSON(t, s, http.MethodGet, "/schemas", nil)
	schemas := list["schemas"].([]any)
	if len(schemas) != 1 || schemas[0] != "docs" {
		t.Fatalf("list = %v", list)
	}
	// Re-register same schema: no duplicate in list.
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	_, list2 := doJSON(t, s, http.MethodGet, "/schemas", nil)
	if len(list2["schemas"].([]any)) != 1 {
		t.Fatalf("duplicate schema listed: %v", list2)
	}
}

func TestRegisterInvalidSchema(t *testing.T) {
	s := newServer(t)
	rec, out := doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: "<bogus/>"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid schema = %d %v", rec.Code, out)
	}
	if out["error"] == "" {
		t.Fatal("missing error message")
	}
}

func TestRegisterBadJSON(t *testing.T) {
	s := newServer(t)
	req := httptest.NewRequest(http.MethodPost, "/schemas", bytes.NewBufferString("{nope"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json = %d", rec.Code)
	}
}

func TestCompleteCachedAndBaseline(t *testing.T) {
	s := newServer(t)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})

	prompt := `<prompt schema="docs"><contract/>Summarize the duties.</prompt>`
	rec, out := doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 8}})
	if rec.Code != http.StatusOK {
		t.Fatalf("complete = %d %v", rec.Code, out)
	}
	if out["cached_tokens"].(float64) <= 0 {
		t.Fatalf("no reuse reported: %v", out)
	}
	mods := out["modules"].([]any)
	if len(mods) != 1 || mods[0] != "contract" {
		t.Fatalf("modules = %v", mods)
	}

	rec2, out2 := doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, Baseline: true, GenConfig: promptcache.GenConfig{MaxTokens: 8}})
	if rec2.Code != http.StatusOK {
		t.Fatalf("baseline = %d %v", rec2.Code, out2)
	}
	if out2["cached_tokens"].(float64) != 0 {
		t.Fatalf("baseline should not reuse: %v", out2)
	}
	// Single-module prompt: cached output must equal baseline output.
	if out["text"] != out2["text"] {
		t.Fatalf("cached %q != baseline %q", out["text"], out2["text"])
	}
}

func TestCompleteUnknownSchema(t *testing.T) {
	s := newServer(t)
	rec, _ := doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: `<prompt schema="ghost">x</prompt>`})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown schema = %d", rec.Code)
	}
}

// TestErrorStatusMapping: each sentinel in the promptcache taxonomy maps
// to its intended HTTP status via errors.Is, not string matching.
func TestErrorStatusMapping(t *testing.T) {
	s := newServer(t)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	rec, out := doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: `<schema name="param">
	  <module name="lease">The lease runs for <param name="term" len="3"/> from signing.</module>
	</schema>`})
	if rec.Code != http.StatusOK {
		t.Fatalf("param schema = %d %v", rec.Code, out)
	}
	padding := strings.Repeat("word ", 40)
	cases := []struct {
		name   string
		prompt string
		want   int
	}{
		{"unknown schema", `<prompt schema="ghost">x</prompt>`, http.StatusNotFound},
		{"unparsable prompt", `<prompt schema=`, http.StatusUnprocessableEntity},
		{"unknown module", `<prompt schema="docs"><ghost/>x</prompt>`, http.StatusUnprocessableEntity},
		{"no new tokens", `<prompt schema="docs"><contract/></prompt>`, http.StatusUnprocessableEntity},
		{"arg too long", `<prompt schema="param"><lease term="` + padding + `"/>x</prompt>`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rec, out := doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: tc.prompt})
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (%v)", tc.name, rec.Code, tc.want, out)
		}
	}
}

func TestCompleteMethodNotAllowed(t *testing.T) {
	s := newServer(t)
	rec, _ := doJSON(t, s, http.MethodGet, "/v1/complete", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET complete = %d", rec.Code)
	}
}

func TestCompleteBatch(t *testing.T) {
	s := newServer(t)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	req := BatchRequest{
		Prompts: []string{
			`<prompt schema="docs"><contract/>Summarize the duties.</prompt>`,
			`<prompt schema="docs"><contract/><rider/>What about parking?</prompt>`,
			`<prompt schema="docs"><contract/>List weekly chores.</prompt>`,
		},
		GenConfig: promptcache.GenConfig{MaxTokens: 6},
	}
	rec, out := doJSON(t, s, http.MethodPost, "/v1/complete_batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %v", rec.Code, out)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if out["shared_modules"].(float64) == 0 {
		t.Fatalf("no sharing: %v", out)
	}
	if out["physical_bytes"].(float64) >= out["logical_bytes"].(float64) {
		t.Fatalf("sharing should shrink physical bytes: %v", out)
	}
	if out["savings_pct"].(float64) <= 0 {
		t.Fatalf("savings = %v", out["savings_pct"])
	}
}

func TestCompleteBatchErrors(t *testing.T) {
	s := newServer(t)
	rec, _ := doJSON(t, s, http.MethodPost, "/v1/complete_batch", BatchRequest{})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("empty batch = %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/v1/complete_batch", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch = %d", rec.Code)
	}
}

func TestVocabEndpoint(t *testing.T) {
	// Server A learns words by registering a schema; its vocab dump makes
	// server B (same weights, fresh tokenizer) decode identically.
	a := newServer(t)
	doJSON(t, a, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	prompt := `<prompt schema="docs"><contract/>Summarize the duties.</prompt>`
	_, outA := doJSON(t, a, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 8}})

	recDump := httptest.NewRecorder()
	a.ServeHTTP(recDump, httptest.NewRequest(http.MethodGet, "/vocab", nil))
	if recDump.Code != http.StatusOK {
		t.Fatalf("vocab GET = %d", recDump.Code)
	}

	b := newServer(t)
	recPut := httptest.NewRecorder()
	b.ServeHTTP(recPut, httptest.NewRequest(http.MethodPut, "/vocab", bytes.NewReader(recDump.Body.Bytes())))
	if recPut.Code != http.StatusOK {
		t.Fatalf("vocab PUT = %d %s", recPut.Code, recPut.Body.String())
	}
	doJSON(t, b, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	_, outB := doJSON(t, b, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 8}})
	if outA["text"] != outB["text"] {
		t.Fatalf("decodes differ after vocab transfer: %q vs %q", outA["text"], outB["text"])
	}
	// Bad payload rejected.
	recBad := httptest.NewRecorder()
	b.ServeHTTP(recBad, httptest.NewRequest(http.MethodPut, "/vocab", bytes.NewBufferString("{broken")))
	if recBad.Code != http.StatusBadRequest {
		t.Fatalf("bad vocab = %d", recBad.Code)
	}
}

func TestStreamEndpoint(t *testing.T) {
	s := newServer(t)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(CompleteRequest{
		Prompt:    `<prompt schema="docs"><contract/>Summarize.</prompt>`,
		GenConfig: promptcache.GenConfig{MaxTokens: 5},
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/stream", &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream = %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	events := 0
	sawDone := false
	for _, line := range splitLines(body) {
		if len(line) > 6 && line[:6] == "data: " {
			events++
			var m map[string]any
			if err := json.Unmarshal([]byte(line[6:]), &m); err != nil {
				t.Fatalf("bad event %q: %v", line, err)
			}
			if m["done"] == true {
				sawDone = true
				if m["cached_tokens"].(float64) <= 0 {
					t.Fatalf("done event lacks reuse stats: %v", m)
				}
			}
		}
	}
	if events < 2 || !sawDone {
		t.Fatalf("events=%d done=%v body=%q", events, sawDone, body)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestStreamErrors(t *testing.T) {
	s := newServer(t)
	rec, _ := doJSON(t, s, http.MethodPost, "/v1/stream", CompleteRequest{Prompt: `<prompt schema="ghost">x</prompt>`})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown schema stream = %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/v1/stream", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET stream = %d", rec.Code)
	}
}

// TestSessionLifecycle: create a session, advance it two turns, delete
// it, and verify the handle is gone.
func TestSessionLifecycle(t *testing.T) {
	s := newServer(t)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})

	rec, out := doJSON(t, s, http.MethodPost, "/v1/sessions", SessionRequest{
		Prompt:    `<prompt schema="docs"><contract/>Summarize the duties.</prompt>`,
		GenConfig: promptcache.GenConfig{MaxTokens: 6},
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d %v", rec.Code, out)
	}
	id, _ := out["session_id"].(string)
	if id == "" || out["text"] == "" {
		t.Fatalf("create response %v", out)
	}
	if out["cached_tokens"].(float64) <= 0 {
		t.Fatalf("session did not reuse: %v", out)
	}

	var lastTokens float64
	for turn, text := range []string{"What about the garden?", "And the rent due date?"} {
		rec, out := doJSON(t, s, http.MethodPost, "/v1/sessions/"+id+"/send", SendRequest{Text: text})
		if rec.Code != http.StatusOK {
			t.Fatalf("send %d = %d %v", turn, rec.Code, out)
		}
		if out["turns"].(float64) != float64(turn+1) {
			t.Fatalf("turns = %v after send %d", out["turns"], turn)
		}
		if st := out["session_tokens"].(float64); st <= lastTokens {
			t.Fatalf("session KV should grow: %v -> %v", lastTokens, st)
		} else {
			lastTokens = st
		}
	}

	rec, out = doJSON(t, s, http.MethodDelete, "/v1/sessions/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete = %d %v", rec.Code, out)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/v1/sessions/"+id+"/send", SendRequest{Text: "gone?"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("send after delete = %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodDelete, "/v1/sessions/"+id, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double delete = %d", rec.Code)
	}
}

// TestSessionCap: creates beyond MaxSessions fail with 503 until a
// session is deleted.
func TestSessionCap(t *testing.T) {
	s := newServer(t)
	s.MaxSessions = 1
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	create := func() (*httptest.ResponseRecorder, map[string]any) {
		return doJSON(t, s, http.MethodPost, "/v1/sessions", SessionRequest{
			Prompt:    `<prompt schema="docs"><contract/>Hi.</prompt>`,
			GenConfig: promptcache.GenConfig{MaxTokens: 2},
		})
	}
	rec, out := create()
	if rec.Code != http.StatusCreated {
		t.Fatalf("first create = %d %v", rec.Code, out)
	}
	id := out["session_id"].(string)
	rec, _ = create()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap create = %d", rec.Code)
	}
	doJSON(t, s, http.MethodDelete, "/v1/sessions/"+id, nil)
	rec, _ = create()
	if rec.Code != http.StatusCreated {
		t.Fatalf("create after delete = %d", rec.Code)
	}
}

// TestSessionIdleReaping: abandoned sessions free their cap slot once
// idle past SessionIdleTimeout, instead of jamming creates forever.
func TestSessionIdleReaping(t *testing.T) {
	s := newServer(t)
	s.MaxSessions = 1
	s.SessionIdleTimeout = time.Nanosecond
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	create := func() (*httptest.ResponseRecorder, map[string]any) {
		return doJSON(t, s, http.MethodPost, "/v1/sessions", SessionRequest{
			Prompt:    `<prompt schema="docs"><contract/>Hi.</prompt>`,
			GenConfig: promptcache.GenConfig{MaxTokens: 2},
		})
	}
	rec, out := create()
	if rec.Code != http.StatusCreated {
		t.Fatalf("first create = %d %v", rec.Code, out)
	}
	old := out["session_id"].(string)
	time.Sleep(time.Millisecond) // let the first session cross the idle cutoff
	rec, _ = create()
	if rec.Code != http.StatusCreated {
		t.Fatalf("create after idle expiry = %d (abandoned session jammed the cap)", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/v1/sessions/"+old+"/send", SendRequest{Text: "still there?"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("reaped session should be gone: %d", rec.Code)
	}
}

// TestReapSkipsInFlightSession: a session with a turn in flight is
// activity, not idleness — the reaper must not close it even when its
// lastUsed is past the cutoff.
func TestReapSkipsInFlightSession(t *testing.T) {
	s := newServer(t)
	s.MaxSessions = 1
	s.SessionIdleTimeout = time.Hour
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	create := func() (*httptest.ResponseRecorder, map[string]any) {
		return doJSON(t, s, http.MethodPost, "/v1/sessions", SessionRequest{
			Prompt:    `<prompt schema="docs"><contract/>Hi.</prompt>`,
			GenConfig: promptcache.GenConfig{MaxTokens: 2},
		})
	}
	rec, out := create()
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d %v", rec.Code, out)
	}
	id := out["session_id"].(string)
	// Simulate a long-running turn holding the session, then shrink the
	// timeout so the session is nominally idle-expired mid-turn.
	e, err := s.acquireSession(id)
	if err != nil {
		t.Fatal(err)
	}
	s.SessionIdleTimeout = time.Nanosecond
	time.Sleep(time.Millisecond) // well past the idle cutoff
	rec, _ = create()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight session was reaped: create = %d", rec.Code)
	}
	s.releaseSession(e)
	time.Sleep(time.Millisecond) // now idle past the cutoff again
	rec, _ = create()
	if rec.Code != http.StatusCreated {
		t.Fatalf("released idle session not reaped: create = %d", rec.Code)
	}
}

func TestSessionUnknownSchema(t *testing.T) {
	s := newServer(t)
	rec, _ := doJSON(t, s, http.MethodPost, "/v1/sessions", SessionRequest{Prompt: `<prompt schema="ghost">x</prompt>`})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("session unknown schema = %d", rec.Code)
	}
}

func TestStats(t *testing.T) {
	s := newServer(t)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	prompt := `<prompt schema="docs"><contract/>Summarize.</prompt>`
	doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 4}})
	doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 4}})
	_, out := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if out["modules_encoded"].(float64) < 2 {
		t.Fatalf("stats = %v", out)
	}
	if out["modules_reused"].(float64) == 0 {
		t.Fatalf("no reuse counted: %v", out)
	}
	if out["tokens_reused"].(float64) <= 0 {
		t.Fatalf("no token reuse counted: %v", out)
	}
}

// newSchedServer builds a server whose client runs the continuous-
// batching decode scheduler, returning both so tests can observe lanes.
func newSchedServer(t *testing.T) (*Server, *promptcache.Client) {
	t.Helper()
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 11))
	if err != nil {
		t.Fatal(err)
	}
	client := promptcache.New(m, promptcache.WithDecodeScheduler(4))
	return New(client), client
}

// TestStreamClientDisconnectRetiresLane is the regression test for
// streaming under continuous batching: a client that kills its SSE
// connection mid-reply must have its scheduler lane retired promptly
// (via r.Context() or the emit refusal), not decode on toward
// max_tokens while other lanes share its batch.
func TestStreamClientDisconnectRetiresLane(t *testing.T) {
	s, client := newSchedServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(SchemaRequest{PML: testSchema})
	if resp, err := ts.Client().Post(ts.URL+"/schemas", "application/json", &buf); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %v %v", err, resp)
	}

	// max_tokens asks for far more decode than MaxSeq even allows; only a
	// prompt per-lane abort keeps tokens_decoded small.
	buf.Reset()
	_ = json.NewEncoder(&buf).Encode(CompleteRequest{
		Prompt:    `<prompt schema="docs"><contract/>Summarize at length.</prompt>`,
		GenConfig: promptcache.GenConfig{MaxTokens: 1 << 20},
	})
	resp, err := ts.Client().Post(ts.URL+"/v1/stream", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Read one token event, then kill the connection.
	one := make([]byte, 64)
	if _, err := resp.Body.Read(one); err != nil {
		t.Fatalf("first event: %v", err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := client.Snapshot().Scheduler
		if st.LanesJoined > 0 && st.LanesJoined == st.LanesRetired && st.ActiveLanes == 0 && st.QueueDepth == 0 {
			if st.TokensDecoded > 4000 {
				t.Fatalf("lane decoded %d tokens after disconnect; abort was not prompt", st.TokensDecoded)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lane never retired after client disconnect: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsSchedulerBlock: /v1/stats (and /stats) must expose the decode
// scheduler's observability block when the scheduler is enabled, and
// omit it when it is not.
func TestStatsSchedulerBlock(t *testing.T) {
	s, _ := newSchedServer(t)
	doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	prompt := `<prompt schema="docs"><contract/>Summarize.</prompt>`
	doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{Prompt: prompt, GenConfig: promptcache.GenConfig{MaxTokens: 4}})
	_, out := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	sched, ok := out["scheduler"].(map[string]any)
	if !ok {
		t.Fatalf("no scheduler block in /v1/stats: %v", out)
	}
	if sched["max_batch"].(float64) != 4 {
		t.Fatalf("scheduler block = %v", sched)
	}
	if sched["tokens_decoded"].(float64) != 4 {
		t.Fatalf("tokens_decoded = %v, want 4", sched["tokens_decoded"])
	}
	if sched["lanes_joined"].(float64) != 1 || sched["lanes_retired"].(float64) != 1 {
		t.Fatalf("lane lifecycle: %v", sched)
	}
	hist, ok := sched["batch_hist"].([]any)
	if !ok || len(hist) != 4 || hist[0].(float64) == 0 {
		t.Fatalf("batch_hist = %v", sched["batch_hist"])
	}

	// Unscheduled server: no block.
	plain := newServer(t)
	doJSON(t, plain, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	_, out = doJSON(t, plain, http.MethodGet, "/v1/stats", nil)
	if _, has := out["scheduler"]; has {
		t.Fatalf("scheduler block present without scheduler: %v", out)
	}
}

// TestStatsTierCounters: /v1/stats exposes the storage-tier block, and a
// disk spill followed by a promoting serve is visible in it — the
// eviction acceptance path seen from the transport.
func TestStatsTierCounters(t *testing.T) {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 23))
	if err != nil {
		t.Fatal(err)
	}
	probe := promptcache.New(m)
	if _, err := probe.RegisterSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	need := probe.Engine().Snapshot().PoolBytes

	dir := t.TempDir()
	// One byte short of the full schema: the pool holds either module
	// but never both, so registration spills and each serve promotes.
	client := promptcache.New(m,
		promptcache.WithDeviceCapacity(need-1),
		promptcache.WithDiskTier(dir, promptcache.CodecFP32),
	)
	s := New(client)
	rec, _ := doJSON(t, s, http.MethodPost, "/schemas", SchemaRequest{PML: testSchema})
	if rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}

	rec, out := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	tiers, ok := out["tiers"].(map[string]any)
	if !ok {
		t.Fatalf("no tiers block in %v", out)
	}
	if tiers["modules_spilled"].(float64) == 0 {
		t.Fatalf("registration over a tight pool should spill: %v", tiers)
	}
	if tiers["disk_bytes"].(float64) == 0 || tiers["disk_modules"].(float64) == 0 {
		t.Fatalf("disk occupancy should be nonzero: %v", tiers)
	}

	// Serving both modules forces at least one disk promotion; no 503,
	// no re-encode.
	for _, mod := range []string{"contract", "rider"} {
		rec, _ = doJSON(t, s, http.MethodPost, "/v1/complete", CompleteRequest{
			Prompt:    `<prompt schema="docs"><` + mod + `/><user>Summarize.</user></prompt>`,
			GenConfig: promptcache.GenConfig{MaxTokens: 4},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("complete %s: %d %s", mod, rec.Code, rec.Body.String())
		}
	}
	_, out = doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	tiers = out["tiers"].(map[string]any)
	if tiers["disk_hits"].(float64) == 0 {
		t.Fatalf("serving spilled modules should promote from disk: %v", tiers)
	}
	if tiers["tier_account_errors"].(float64) != 0 {
		t.Fatalf("tier accounting drifted: %v", tiers)
	}
	if out["modules_reloaded"].(float64) != 0 {
		t.Fatalf("disk tier should prevent re-encodes: %v", out)
	}
}
