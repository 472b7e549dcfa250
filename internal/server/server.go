// Package server exposes Prompt Cache over HTTP, the shape a serving
// system would embed it in (§6 positions Prompt Cache as a building block
// for LLM serving). It is a thin transport over promptcache.Client:
// schemas are uploaded once, prompts derived from them complete with
// cached attention states, and /v1/sessions carries multi-turn traffic
// over server-held KV state. Request contexts propagate into the engine,
// so a client that disconnects aborts its prefill and decode mid-flight
// without disturbing any other request's decode lane. Every endpoint
// shares one Client, and so one module cache; /v1/stats reports the
// decode loop's lanes, steps and tokens in its scheduler block.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/promptcache"
)

// errSessionNotFound: a session id that does not exist (or was deleted).
var errSessionNotFound = errors.New("server: session not found")

// DefaultMaxSessions bounds concurrently open sessions: each one holds
// a full KV cache, so an unbounded map is a memory leak under clients
// that create and abandon sessions.
const DefaultMaxSessions = 1024

// DefaultSessionIdleTimeout is how long an untouched session survives
// before the next create may reap it. Without expiry, abandoned
// sessions (clients that never DELETE) would pin cap slots and KV
// memory until restart.
const DefaultSessionIdleTimeout = 30 * time.Minute

// sessionEntry pairs a session with the bookkeeping idle reaping needs:
// lastUsed is stamped when a turn *finishes* (a long decode is activity,
// not idleness), and inflight guards actively-serving sessions from
// being reaped mid-turn.
type sessionEntry struct {
	sess     *promptcache.Session
	lastUsed time.Time
	inflight int
}

// Server is an http.Handler serving a Prompt Cache.
type Server struct {
	client *promptcache.Client
	mux    *http.ServeMux

	// MaxSessions caps open sessions (default DefaultMaxSessions);
	// creates beyond it fail with 503 until one is deleted or expires.
	// Set before serving traffic.
	MaxSessions int
	// SessionIdleTimeout is the idle age past which a session may be
	// reaped (default DefaultSessionIdleTimeout). Reaping is lazy: it
	// runs when a new session is created.
	SessionIdleTimeout time.Duration

	mu       sync.Mutex
	sessions map[string]*sessionEntry
	nextID   int
}

// New builds a server around a prompt-cache client.
func New(client *promptcache.Client) *Server {
	s := &Server{
		client:             client,
		mux:                http.NewServeMux(),
		sessions:           make(map[string]*sessionEntry),
		MaxSessions:        DefaultMaxSessions,
		SessionIdleTimeout: DefaultSessionIdleTimeout,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /schemas", s.handleListSchemas)
	s.mux.HandleFunc("POST /schemas", s.handleRegisterSchema)
	s.mux.HandleFunc("POST /v1/complete", s.handleComplete)
	s.mux.HandleFunc("POST /v1/complete_batch", s.handleCompleteBatch)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/send", s.handleSessionSend)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /vocab", s.handleVocabGet)
	s.mux.HandleFunc("PUT /vocab", s.handleVocabPut)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusFor maps the promptcache error taxonomy to HTTP statuses via
// errors.Is — the transport's whole knowledge of failure modes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errSessionNotFound), errors.Is(err, promptcache.ErrSessionClosed):
		return http.StatusNotFound
	case errors.Is(err, promptcache.ErrUnknownSchema):
		return http.StatusNotFound
	case errors.Is(err, promptcache.ErrBadPrompt), errors.Is(err, promptcache.ErrBadSchema),
		errors.Is(err, promptcache.ErrBadSnapshot):
		return http.StatusUnprocessableEntity
	case errors.Is(err, promptcache.ErrArgTooLong), errors.Is(err, promptcache.ErrPromptTooLong):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, promptcache.ErrCapacity):
		return http.StatusServiceUnavailable
	case errors.Is(err, promptcache.ErrOverloaded):
		// Admission shed the request; writeErr attaches the Retry-After
		// estimate the error chain carries.
		return http.StatusTooManyRequests
	case errors.Is(err, promptcache.ErrDeadline):
		// Checked before the bare context case: a configured per-request
		// deadline also satisfies context.DeadlineExceeded.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "model": s.client.Model().Cfg.Name})
}

// SchemaRequest uploads a PML schema.
type SchemaRequest struct {
	PML string `json:"pml"`
}

// SchemaResponse reports the registered schema's layout.
type SchemaResponse struct {
	Name      string `json:"name"`
	Modules   int    `json:"modules"`
	Positions int    `json:"positions"`
}

func (s *Server) handleListSchemas(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"schemas": s.client.Schemas()})
}

func (s *Server) handleRegisterSchema(w http.ResponseWriter, r *http.Request) {
	var req SchemaRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.client.RegisterSchema(req.PML)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, SchemaResponse{
		Name: info.Name, Modules: len(info.Modules), Positions: info.Positions,
	})
}

// CompleteRequest asks for a completion of a PML prompt. The embedded
// GenConfig promotes the generation options into the request body —
// max_tokens, stop_token, slo ("interactive"/"batch"; unknown names are
// a 422, not a silent default), and speculation {enabled, max_draft} —
// the same option surface every other entry point takes.
type CompleteRequest struct {
	Prompt string `json:"prompt"`
	// Baseline disables attention reuse (full prefill), for comparisons.
	Baseline bool `json:"baseline"`
	promptcache.GenConfig
}

// CompleteResponse carries the generation and reuse statistics.
type CompleteResponse struct {
	Text         string   `json:"text"`
	CachedTokens int      `json:"cached_tokens"`
	NewTokens    int      `json:"new_tokens"`
	Modules      []string `json:"modules"`
	Scaffolds    []string `json:"scaffolds,omitempty"`
}

func completeResponse(resp *promptcache.Response) CompleteResponse {
	return CompleteResponse{
		Text:         resp.Text,
		CachedTokens: resp.CachedTokens,
		NewTokens:    resp.NewTokens,
		Modules:      resp.Modules,
		Scaffolds:    resp.Scaffolds,
	}
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	s.reapIdle()
	var req CompleteRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, readStatus(err), err)
		return
	}
	resp, err := s.client.Infer(r.Context(), promptcache.Request{
		Prompt:   req.Prompt,
		Baseline: req.Baseline,
		Gen:      req.GenConfig,
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, completeResponse(resp))
}

// streamTokenBuffer bounds how far decoding may run ahead of a stream
// client's reads. Decode runs on the request's own goroutine, so once a
// slow client falls this far behind, its generation waits for the
// client's reads (or its disconnect) and blocks no other request.
const streamTokenBuffer = 256

// handleStream serves a completion as server-sent events: one
// `data: {"token": "..."}` event per generated token, then a final
// `data: {"done": true, ...}` event with the reuse statistics. TTFT is
// visible to clients as the delay before the first event — the quantity
// Prompt Cache improves. A disconnecting client cancels the request
// context, which retires the request's decode lane at its next step; a
// connected-but-stalled client paces its own generation once it falls
// streamTokenBuffer tokens behind.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.reapIdle()
	var req CompleteRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, readStatus(err), err)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	headerSent := false
	send := func(v any) {
		if !headerSent {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.WriteHeader(http.StatusOK)
			headerSent = true
		}
		b, _ := json.Marshal(v)
		fmt.Fprintf(w, "data: %s\n\n", b)
		if canFlush {
			flusher.Flush()
		}
	}
	// Token delivery is decoupled from decoding: the Stream callback
	// runs on the decode loop and only hands tokens to a buffered
	// channel, so decode runs ahead of the network by up to
	// streamTokenBuffer tokens; this writer goroutine owns the actual
	// SSE writes.
	tokens := make(chan string, streamTokenBuffer)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for text := range tokens {
			send(map[string]string{"token": text})
		}
	}()
	resp, err := s.client.Infer(r.Context(), promptcache.Request{
		Prompt:   req.Prompt,
		Baseline: req.Baseline,
		Gen:      req.GenConfig,
		Stream: func(text string) bool {
			select {
			case tokens <- text:
				return true
			case <-r.Context().Done():
				return false
			}
		},
	})
	close(tokens)
	<-writerDone // all token events flushed; done/error events are ours
	if err != nil {
		if headerSent {
			send(map[string]string{"error": err.Error()})
		} else {
			writeErr(w, statusFor(err), err)
		}
		return
	}
	send(map[string]any{"done": true, "cached_tokens": resp.CachedTokens, "new_tokens": resp.NewTokens})
}

// BatchRequest completes several prompts in one call with module states
// shared across the batch (§3.4). The embedded GenConfig applies to
// every prompt; the batch always rides the batch admission lane.
type BatchRequest struct {
	Prompts []string `json:"prompts"`
	promptcache.GenConfig
}

// BatchResponse returns per-prompt completions plus the sharing effect.
type BatchResponse struct {
	Results       []CompleteResponse `json:"results"`
	SharedModules int                `json:"shared_modules"`
	LogicalBytes  int64              `json:"logical_bytes"`
	PhysicalBytes int64              `json:"physical_bytes"`
	SavingsPct    float64            `json:"savings_pct"`
}

func (s *Server) handleCompleteBatch(w http.ResponseWriter, r *http.Request) {
	s.reapIdle()
	var req BatchRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, readStatus(err), err)
		return
	}
	batch, err := s.client.InferBatch(r.Context(), promptcache.BatchRequest{
		Prompts: req.Prompts,
		Gen:     req.GenConfig,
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	resp := BatchResponse{
		SharedModules: batch.Stats.SharedModules,
		LogicalBytes:  batch.Stats.LogicalBytes,
		PhysicalBytes: batch.Stats.PhysicalBytes,
		SavingsPct:    100 * batch.Stats.Savings(),
	}
	for _, r := range batch.Results {
		resp.Results = append(resp.Results, completeResponse(r))
	}
	writeJSON(w, http.StatusOK, resp)
}

// SessionRequest opens a multi-turn session from a PML prompt. The
// embedded GenConfig becomes the session's defaults for later turns.
type SessionRequest struct {
	Prompt string `json:"prompt"`
	promptcache.GenConfig
}

// SessionResponse reports the session handle plus the first reply.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	CompleteResponse
}

// SendRequest advances a session by one user turn. A non-zero embedded
// GenConfig overrides the session defaults for this turn only.
type SendRequest struct {
	Text string `json:"text"`
	promptcache.GenConfig
}

// SendResponse carries one turn's reply, its reuse accounting (the
// whole prior session counts as reused; only the turn's own text is
// computed), and the session's KV footprint.
type SendResponse struct {
	Text          string `json:"text"`
	CachedTokens  int    `json:"cached_tokens"`
	NewTokens     int    `json:"new_tokens"`
	Turns         int    `json:"turns"`
	SessionTokens int    `json:"session_tokens"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, readStatus(err), err)
		return
	}
	// Check the cap before paying for the prefill; recheck at insert.
	if err := s.sessionCapacity(); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	sess, first, err := s.client.NewSession(r.Context(), promptcache.Request{
		Prompt: req.Prompt,
		Gen:    req.GenConfig,
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	s.mu.Lock()
	victims := s.reapIdleLocked()
	over := len(s.sessions) >= s.MaxSessions
	var id string
	if !over {
		s.nextID++
		id = "s" + strconv.Itoa(s.nextID)
		s.sessions[id] = &sessionEntry{sess: sess, lastUsed: time.Now()}
	}
	s.mu.Unlock()
	closeAll(victims)
	if over {
		_ = sess.Close()
		writeErr(w, statusFor(promptcache.ErrCapacity), s.capacityErr())
		return
	}
	writeJSON(w, http.StatusCreated, SessionResponse{SessionID: id, CompleteResponse: completeResponse(first)})
}

func (s *Server) sessionCapacity() error {
	s.mu.Lock()
	victims := s.reapIdleLocked()
	over := len(s.sessions) >= s.MaxSessions
	s.mu.Unlock()
	closeAll(victims)
	if over {
		return s.capacityErr()
	}
	return nil
}

// reapIdleLocked removes sessions idle past SessionIdleTimeout from the
// registry — so abandoned sessions cannot pin cap slots and KV memory
// forever — and returns them for the caller to Close once s.mu is
// released: Session.Close blocks on the session's own mutex, and holding
// the server mutex across that wait would let one slow turn stall every
// session endpoint. Sessions with a turn in flight are activity, not
// idleness, and are never reaped.
func (s *Server) reapIdleLocked() []*promptcache.Session {
	if s.SessionIdleTimeout <= 0 {
		return nil
	}
	cutoff := time.Now().Add(-s.SessionIdleTimeout)
	var victims []*promptcache.Session
	for id, e := range s.sessions {
		if e.inflight == 0 && e.lastUsed.Before(cutoff) {
			victims = append(victims, e.sess)
			delete(s.sessions, id)
		}
	}
	return victims
}

func closeAll(victims []*promptcache.Session) {
	for _, v := range victims {
		_ = v.Close()
	}
}

func (s *Server) capacityErr() error {
	return fmt.Errorf("%w: %d sessions open; delete one before creating more", promptcache.ErrCapacity, s.MaxSessions)
}

// reapIdle is the unlocked sweep. Every inference and session handler
// calls it (the sweep is a map walk, noise next to a prefill), so
// abandoned sessions are collected as long as any traffic arrives —
// including stateless /v1/complete-only workloads.
func (s *Server) reapIdle() {
	s.mu.Lock()
	victims := s.reapIdleLocked()
	s.mu.Unlock()
	closeAll(victims)
}

// acquireSession sweeps expired sessions, then looks the session up and
// marks it in flight, shielding it from the idle reaper for the
// duration of the turn — one critical section for both.
func (s *Server) acquireSession(id string) (*sessionEntry, error) {
	s.mu.Lock()
	victims := s.reapIdleLocked()
	e, ok := s.sessions[id]
	if ok {
		e.inflight++
	}
	s.mu.Unlock()
	closeAll(victims)
	if !ok {
		return nil, fmt.Errorf("%w: %q", errSessionNotFound, id)
	}
	return e, nil
}

// releaseSession ends a turn: the session becomes reapable again and
// its idle clock restarts from the turn's completion.
func (s *Server) releaseSession(e *sessionEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.inflight--
	e.lastUsed = time.Now()
}

func (s *Server) handleSessionSend(w http.ResponseWriter, r *http.Request) {
	e, err := s.acquireSession(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	defer s.releaseSession(e)
	var req SendRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, readStatus(err), err)
		return
	}
	var resp *promptcache.Response
	if req.GenConfig != (promptcache.GenConfig{}) {
		resp, err = e.sess.SendOpts(r.Context(), req.Text, promptcache.Request{Gen: req.GenConfig})
	} else {
		resp, err = e.sess.Send(r.Context(), req.Text)
	}
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, SendResponse{
		Text:          resp.Text,
		CachedTokens:  resp.CachedTokens,
		NewTokens:     resp.NewTokens,
		Turns:         e.sess.Turns(),
		SessionTokens: e.sess.CachedTokens(),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w: %q", errSessionNotFound, id))
		return
	}
	_ = e.sess.Close()
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed", "session_id": id})
}

// handleVocabGet exports the tokenizer's learned id→word table, keeping
// decodes human-readable across restarts — the companion to schema-state
// snapshots (a restored server has never Encoded its schema text). The
// dump is buffered so a serialization failure returns a proper status
// instead of corrupting a 200 body.
func (s *Server) handleVocabGet(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := s.client.Engine().Tokenizer().SaveVocab(&buf); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// handleVocabPut merges an exported vocab table into the tokenizer.
func (s *Server) handleVocabPut(w http.ResponseWriter, r *http.Request) {
	if err := s.client.Engine().Tokenizer().LoadVocab(io.LimitReader(r.Body, 16<<20)); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "merged"})
}

// handleStats serializes the client's consolidated Snapshot document
// directly — promptcache.Snapshot's JSON tags are the monitoring
// contract (pinned by the stats-contract golden test); the server only
// contributes its transport-local gauge, open_sessions.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.reapIdle()
	snap := s.client.Snapshot()
	s.mu.Lock()
	snap.OpenSessions = len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

func readJSON(r *http.Request, dst any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, dst)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readStatus maps a request-body decode failure to its status: body
// errors that carry the promptcache taxonomy (an unknown SLO class name,
// surfaced by SLOClass's UnmarshalJSON) keep their taxonomy status;
// anything else — malformed JSON, wrong types — is a plain 400.
func readStatus(err error) int {
	if errors.Is(err, promptcache.ErrBadPrompt) {
		return statusFor(err)
	}
	return http.StatusBadRequest
}

func writeErr(w http.ResponseWriter, status int, err error) {
	// A shed request's error chain carries the engine's Retry-After
	// estimate; surface it as the standard header, rounded up to whole
	// seconds (never 0 — "retry immediately" would defeat the shed).
	if d, ok := promptcache.RetryAfterHint(err); ok {
		secs := int64((d + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
