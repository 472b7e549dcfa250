package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission control: a bounded queue in front of serving that sheds
// load instead of collapsing under it. Every request Admits before the
// engine does any work; at capacity it waits in a per-SLO-class FIFO,
// and when the queue itself is full it is shed immediately with a typed
// OverloadError carrying a retry-after estimate (queue depth × observed
// service rate). Interactive requests are always granted slots before
// batch requests.

// SLOClass classifies a request's latency objective. The admission
// queue serves interactive traffic before batch backfill.
type SLOClass int

const (
	// SLOInteractive is the default class: user-facing requests whose
	// TTFT matters. Admitted ahead of batch traffic.
	SLOInteractive SLOClass = iota
	// SLOBatch marks throughput-oriented backfill traffic: it yields
	// admission slots to interactive load.
	SLOBatch
	// numSLOClasses sizes per-class arrays; keep it last.
	numSLOClasses
)

// String returns the class's wire name ("interactive", "batch").
func (c SLOClass) String() string {
	switch c {
	case SLOInteractive:
		return "interactive"
	case SLOBatch:
		return "batch"
	default:
		return fmt.Sprintf("slo(%d)", int(c))
	}
}

// ParseSLOClass maps a wire name to its SLOClass; the empty string is
// the interactive default.
func ParseSLOClass(s string) (SLOClass, error) {
	switch s {
	case "", "interactive":
		return SLOInteractive, nil
	case "batch":
		return SLOBatch, nil
	default:
		return SLOInteractive, fmt.Errorf("%w: unknown SLO class %q (want interactive or batch)", ErrBadPrompt, s)
	}
}

// MarshalJSON writes the class's wire name, so structs embedding an
// SLOClass serialize "interactive"/"batch" instead of a bare int.
func (c SLOClass) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON accepts the wire names ParseSLOClass does (with "" and
// absent meaning interactive), making SLOClass usable directly in
// request JSON shapes.
func (c *SLOClass) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("%w: SLO class must be a JSON string", ErrBadPrompt)
	}
	parsed, err := ParseSLOClass(s)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// WithSLOClass tagged ctx with the request's SLO class for the fused
// decode loop's lane order; nothing reads the tag any more.
//
// Deprecated: it returns ctx unchanged and is removed once no caller
// passes it.
func WithSLOClass(ctx context.Context, _ SLOClass) context.Context { return ctx }

// Default admission bounds used when AdmissionConfig fields are
// non-positive.
const (
	DefaultAdmitConcurrent = 8
	DefaultAdmitQueue      = 64
)

// AdmissionConfig bounds concurrent serving (WithAdmission).
type AdmissionConfig struct {
	// MaxConcurrent is the number of requests served at once
	// (non-positive selects DefaultAdmitConcurrent).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; arrivals beyond it
	// are shed with ErrOverloaded (non-positive selects
	// DefaultAdmitQueue).
	MaxQueue int
	// InteractiveDeadline / BatchDeadline, when positive, are the
	// per-class deadlines AdmissionContext applies to each request's
	// context — covering queueing, prefill and decode. An expired
	// deadline surfaces as ErrDeadline (HTTP 504).
	InteractiveDeadline time.Duration
	BatchDeadline       time.Duration
}

// OverloadError is the payload of a shed request: the typed carrier of
// the computed Retry-After estimate. errors.Is(err, ErrOverloaded)
// holds; transports recover the estimate with errors.As.
type OverloadError struct {
	// RetryAfter estimates when a retry might be admitted: queue depth
	// ahead of the caller × the observed per-slot service time.
	RetryAfter time.Duration
	// QueueDepth is the admission queue's depth at shed time.
	QueueDepth int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v: queue full at depth %d, retry after %v", ErrOverloaded, e.QueueDepth, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// admitWaiter is one queued request: its class and the channel its
// grant closes.
type admitWaiter struct {
	class SLOClass
	ready chan struct{}
}

// admission is the bounded queue. All fields are guarded by mu; grants
// close waiter channels under it, so acquire's cancellation path can
// distinguish "granted concurrently" from "still queued" atomically.
type admission struct {
	cfg AdmissionConfig

	mu       sync.Mutex
	inflight int
	waiting  int
	queues   [numSLOClasses][]*admitWaiter

	// grants is the FIFO of grant timestamps. Releases pop the front
	// and feed (now − front) into the service-time EWMA: re-pairing
	// grants with releases preserves the sum of residencies, so the
	// mean stays exact under arbitrary overlap.
	grants []time.Time
	ewmaNs float64

	admitted, shed, canceled, completed [numSLOClasses]int64
}

func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultAdmitConcurrent
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = DefaultAdmitQueue
	}
	return &admission{cfg: cfg}
}

// grantLocked records a slot grant for class (counter + grant
// timestamp for the service-rate estimate). The caller adjusts
// inflight: +1 on a fresh slot, unchanged on a release-side handoff.
func (a *admission) grantLocked(class SLOClass) {
	a.admitted[class]++
	a.grants = append(a.grants, time.Now())
}

// acquire blocks until the request holds an admission slot, is shed
// (queue full → *OverloadError), or its context ends while queued
// (→ ErrDeadline-wrapped ctx error). Every nil return holds exactly one
// slot that release must return — including the race where the grant
// and the cancellation fire together: the grant stands, and the serve
// fails fast on its dead context through the normal release path, so
// admitted and completed counts always reconcile.
func (a *admission) acquire(ctx context.Context, class SLOClass) error {
	a.mu.Lock()
	if a.inflight < a.cfg.MaxConcurrent && a.waiting == 0 {
		a.inflight++
		a.grantLocked(class)
		a.mu.Unlock()
		return nil
	}
	if a.waiting >= a.cfg.MaxQueue {
		a.shed[class]++
		err := &OverloadError{RetryAfter: a.retryAfterLocked(), QueueDepth: a.waiting}
		a.mu.Unlock()
		return err
	}
	w := &admitWaiter{class: class, ready: make(chan struct{})}
	a.queues[class] = append(a.queues[class], w)
	a.waiting++
	a.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: keep the slot.
			a.mu.Unlock()
			return nil
		default:
		}
		q := a.queues[class]
		for i, qw := range q {
			if qw == w {
				a.queues[class] = append(q[:i], q[i+1:]...)
				break
			}
		}
		a.waiting--
		a.canceled[class]++
		a.mu.Unlock()
		return wrapDeadline(ctx.Err())
	}
}

// release returns a slot: update the service-time estimate, then hand
// the slot to the longest-waiting interactive request, falling back to
// batch — priority lives here, not in queue insertion, so within a
// class admission stays strictly FIFO.
func (a *admission) release(class SLOClass) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.completed[class]++
	if len(a.grants) > 0 {
		d := float64(time.Since(a.grants[0]).Nanoseconds())
		a.grants = a.grants[1:]
		if a.ewmaNs == 0 {
			a.ewmaNs = d
		} else {
			a.ewmaNs = 0.8*a.ewmaNs + 0.2*d
		}
	}
	for cl := SLOClass(0); cl < numSLOClasses; cl++ {
		if len(a.queues[cl]) == 0 {
			continue
		}
		w := a.queues[cl][0]
		a.queues[cl] = a.queues[cl][1:]
		a.waiting--
		a.grantLocked(w.class)
		close(w.ready) // slot transfers; inflight unchanged
		return
	}
	a.inflight--
}

// retryAfterLocked estimates when a shed caller could be admitted:
// everyone already queued (plus the caller) must drain through
// MaxConcurrent slots at the observed per-slot service time.
func (a *admission) retryAfterLocked() time.Duration {
	svc := time.Duration(a.ewmaNs)
	if svc <= 0 {
		svc = 50 * time.Millisecond // nothing measured yet
	}
	est := svc * time.Duration(a.waiting+1) / time.Duration(a.cfg.MaxConcurrent)
	if est < time.Millisecond {
		est = time.Millisecond
	}
	return est
}

// AdmissionClassStats is one SLO class's slice of admission activity.
type AdmissionClassStats struct {
	// Admitted counts slot grants; Shed counts queue-full rejections;
	// Canceled counts waiters whose context ended while queued;
	// Completed counts released slots. At quiescence
	// Admitted == Completed and every arrival is exactly one of
	// Admitted, Shed or Canceled.
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Canceled  int64 `json:"canceled"`
	Completed int64 `json:"completed"`
	// QueueDepth is the class's instantaneous waiter count.
	QueueDepth int `json:"queue_depth"`
}

// AdmissionStats is the stats document's admission block: configured
// bounds, live occupancy, per-class accounting, and the Retry-After a
// shed request would be told right now.
type AdmissionStats struct {
	// MaxConcurrent / MaxQueue echo the configured bounds.
	MaxConcurrent int `json:"max_concurrent"`
	MaxQueue      int `json:"max_queue"`
	// Inflight is the number of slots currently held; QueueDepth is the
	// total waiter count across classes.
	Inflight   int `json:"inflight"`
	QueueDepth int `json:"queue_depth"`
	// RetryAfterMs is what a request shed right now would be told.
	RetryAfterMs float64 `json:"retry_after_ms"`
	// Interactive and Batch are the per-class histograms.
	Interactive AdmissionClassStats `json:"interactive"`
	Batch       AdmissionClassStats `json:"batch"`
}

func (a *admission) stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	cls := func(c SLOClass) AdmissionClassStats {
		return AdmissionClassStats{
			Admitted:   a.admitted[c],
			Shed:       a.shed[c],
			Canceled:   a.canceled[c],
			Completed:  a.completed[c],
			QueueDepth: len(a.queues[c]),
		}
	}
	return AdmissionStats{
		MaxConcurrent: a.cfg.MaxConcurrent,
		MaxQueue:      a.cfg.MaxQueue,
		Inflight:      a.inflight,
		QueueDepth:    a.waiting,
		RetryAfterMs:  float64(a.retryAfterLocked()) / float64(time.Millisecond),
		Interactive:   cls(SLOInteractive),
		Batch:         cls(SLOBatch),
	}
}

// WithAdmission bounds concurrent serving: cfg.MaxConcurrent requests
// serve at once, cfg.MaxQueue more wait (interactive ahead of batch),
// and arrivals beyond both are shed immediately with ErrOverloaded
// carrying a Retry-After estimate — graceful degradation instead of
// collapse. Per-class deadlines, when set, bound each request
// end to end via AdmissionContext.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(c *Cache) { c.adm = newAdmission(cfg) }
}

// Admit acquires an admission slot for one request (no-op without
// WithAdmission). A nil return holds a slot the caller must return with
// AdmitRelease once the request finishes — success or failure. Non-nil
// returns hold nothing: the request was shed (ErrOverloaded) or its
// context ended while queued (ErrDeadline / context.Canceled).
func (c *Cache) Admit(ctx context.Context, class SLOClass) error {
	if c.adm == nil {
		return nil
	}
	return c.adm.acquire(ctx, class)
}

// AdmitRelease returns the slot a successful Admit acquired, waking the
// next queued request (interactive before batch).
func (c *Cache) AdmitRelease(class SLOClass) {
	if c.adm == nil {
		return
	}
	c.adm.release(class)
}

// AdmissionContext applies the class's configured deadline to ctx (a
// passthrough when admission is off or the class has no deadline). The
// returned cancel must be called to release the timer.
func (c *Cache) AdmissionContext(ctx context.Context, class SLOClass) (context.Context, context.CancelFunc) {
	if c.adm == nil {
		return ctx, func() {}
	}
	d := c.adm.cfg.InteractiveDeadline
	if class == SLOBatch {
		d = c.adm.cfg.BatchDeadline
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// wrapDeadline tags deadline-expiry errors with the taxonomy sentinel:
// a context.DeadlineExceeded anywhere in the chain gains ErrDeadline
// (so transports map it to 504 by sentinel, not by raw context error),
// applied exactly once. Other errors pass through untouched.
func wrapDeadline(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadline) {
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return err
}
