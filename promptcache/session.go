package promptcache

import (
	"context"
	"sync"

	"repro/internal/core"
)

// Session owns the KV state of one multi-turn conversation: the served
// prompt's attention states plus every later turn's and reply's. It
// composes Prompt Cache's prefill reuse with the standard decode-phase
// reuse (§2.2) — follow-up turns pay prefill only for their own text.
// A Session serializes its own turns; use one Session per conversation.
type Session struct {
	client *Client
	// defaults carry the Gen settings turns inherit from the creating
	// request.
	defaults Request

	mu     sync.Mutex
	res    *core.ServeResult
	turns  int
	closed bool
}

// NewSession serves req's prompt, generates the first reply, and returns
// the session holding the conversation's KV state alongside that first
// Response. The request's generation settings (Gen) become the
// session's defaults for later Send calls; per-turn fields — the prompt
// itself, Stream, PrefillOnly — do not carry over. PrefillOnly is honored for the first reply: the session
// starts with served state but no generated text.
func (c *Client) NewSession(ctx context.Context, req Request) (*Session, *Response, error) {
	if err := req.validate(); err != nil {
		return nil, nil, err
	}
	// The admission slot covers serve plus the first reply; each later
	// Send admits its own turn. An idle session holds KV state but no
	// slot, so parked conversations don't starve admission.
	ctx, done, err := c.admit(ctx, req.Gen.SLO)
	if err != nil {
		return nil, nil, err
	}
	defer done()
	res, err := c.serve(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.generate(ctx, res, req)
	if err != nil {
		res.Close()
		return nil, nil, err
	}
	// Only generation settings persist: a Stream sink belongs to the
	// turn that supplied it, not to every future turn. The SLO class
	// persists too — a batch conversation stays batch.
	return &Session{client: c, defaults: Request{Gen: req.Gen}, res: res}, resp, nil
}

// Send appends a user turn to the session and generates the reply with
// the session's default settings. A failed turn — including ctx
// cancellation mid-prefill or mid-decode — leaves no trace: the
// session's KV state is rolled back to the start of the call, so the
// session stays usable and the failed turn never conditions later ones.
func (s *Session) Send(ctx context.Context, text string) (*Response, error) {
	return s.SendOpts(ctx, text, s.defaults)
}

// SendOpts is Send with per-turn generation settings (Gen and Stream);
// prompt-selection fields of req are
// ignored — the session already owns its served state. Each turn
// admits independently: under overload a turn can shed with
// ErrOverloaded, leaving the session state untouched and retryable.
func (s *Session) SendOpts(ctx context.Context, text string, req Request) (*Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	ctx, done, err := s.client.admit(ctx, req.Gen.SLO)
	if err != nil {
		return nil, err
	}
	defer done()
	prev := s.res
	mark := prev.KV.Len()
	res, err := s.client.cache.Continue(ctx, s.res, text)
	if err != nil {
		// Continue already rolled the KV back to mark.
		return nil, err
	}
	// Continue extends s.res.KV in place; adopt the new logits/counters.
	s.res = res
	req.PrefillOnly = false
	resp, err := s.client.generate(ctx, res, req)
	if err != nil {
		// Drop the prefilled user text and any partially decoded reply:
		// an aborted turn must not leave invisible tokens in the history.
		res.KV.Truncate(mark)
		s.res = prev
		return nil, err
	}
	s.turns++
	return resp, nil
}

// Turns reports how many Send calls completed successfully.
func (s *Session) Turns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.turns
}

// CachedTokens reports the KV rows currently held by the session.
func (s *Session) CachedTokens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res == nil || s.res.KV == nil {
		return 0
	}
	return s.res.KV.Len()
}

// Materialize copies the session's KV state into flat, owned storage and
// releases the module pins the session's views held. The session keeps
// working — Sends append to the owned copy — but the modules it was
// serving from become evictable immediately instead of at Close. Call it
// on sessions expected to idle for a long time under memory pressure;
// it costs the O(prefix) copy zero-copy serving avoided.
func (s *Session) Materialize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.res.Materialize()
	return nil
}

// Close releases the session's KV state and the module pins backing its
// views, making those modules evictable again. Further Sends fail with
// ErrSessionClosed. Closing twice is an error.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.closed = true
	s.res.Close()
	s.res = nil
	return nil
}
