package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// Admission-control unit tests: the bounded queue itself (grant, shed,
// cancel, priority, exact count reconciliation) plus the deadline
// taxonomy wrapping and the decode scheduler's SLO-ordered lane pull.

func TestParseSLOClass(t *testing.T) {
	cases := []struct {
		in   string
		want SLOClass
		ok   bool
	}{
		{"", SLOInteractive, true},
		{"interactive", SLOInteractive, true},
		{"batch", SLOBatch, true},
		{"Batch", SLOInteractive, false},
		{"bulk", SLOInteractive, false},
	}
	for _, c := range cases {
		got, err := ParseSLOClass(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseSLOClass(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && !errors.Is(err, ErrBadPrompt) {
			t.Fatalf("ParseSLOClass(%q) err = %v, want errors.Is ErrBadPrompt", c.in, err)
		}
	}
	if SLOInteractive.String() != "interactive" || SLOBatch.String() != "batch" {
		t.Fatalf("String() = %q, %q", SLOInteractive, SLOBatch)
	}
}

func TestWrapDeadline(t *testing.T) {
	if wrapDeadline(nil) != nil {
		t.Fatal("wrapDeadline(nil) != nil")
	}
	plain := errors.New("boom")
	if wrapDeadline(plain) != plain {
		t.Fatal("plain errors must pass through untouched")
	}
	if got := wrapDeadline(context.Canceled); got != context.Canceled {
		t.Fatalf("Canceled must pass through, got %v", got)
	}
	wrapped := wrapDeadline(context.DeadlineExceeded)
	if !errors.Is(wrapped, ErrDeadline) || !errors.Is(wrapped, context.DeadlineExceeded) {
		t.Fatalf("wrapped = %v, want both ErrDeadline and DeadlineExceeded", wrapped)
	}
	// Idempotent: an already-tagged chain is not tagged again.
	if again := wrapDeadline(wrapped); again != wrapped {
		t.Fatalf("double wrap: %v", again)
	}
}

func TestAdmitWithoutAdmissionIsNoop(t *testing.T) {
	c := llamaCache(t)
	if st := c.Snapshot().Admission; st != nil {
		t.Fatalf("admission block without WithAdmission: %+v", st)
	}
	for i := 0; i < 100; i++ {
		if err := c.Admit(context.Background(), SLOInteractive); err != nil {
			t.Fatal(err)
		}
	}
	// No releases needed: nothing was bounded.
}

func TestAdmitFastPathGrantAndRelease(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 2})
	ctx := context.Background()
	if err := a.acquire(ctx, SLOInteractive); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx, SLOBatch); err != nil {
		t.Fatal(err)
	}
	st := a.stats()
	if st.Inflight != 2 || st.QueueDepth != 0 {
		t.Fatalf("inflight=%d depth=%d, want 2/0", st.Inflight, st.QueueDepth)
	}
	a.release(SLOInteractive)
	a.release(SLOBatch)
	st = a.stats()
	if st.Inflight != 0 || st.Interactive.Completed != 1 || st.Batch.Completed != 1 {
		t.Fatalf("after release: %+v", st)
	}
}

// fillSlots occupies every concurrent slot and returns a func that
// releases them all.
func fillSlots(t *testing.T, a *admission) func() {
	t.Helper()
	for i := 0; i < a.cfg.MaxConcurrent; i++ {
		if err := a.acquire(context.Background(), SLOInteractive); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for i := 0; i < a.cfg.MaxConcurrent; i++ {
			a.release(SLOInteractive)
		}
	}
}

func TestAdmitShedsWhenQueueFull(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	drain := fillSlots(t, a)

	// One waiter fills the queue.
	waiterCtx, stopWaiter := context.WithCancel(context.Background())
	defer stopWaiter()
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(waiterCtx, SLOInteractive) }()
	waitFor(t, func() bool { return a.stats().QueueDepth == 1 })

	// The next arrival is shed immediately with the typed error.
	err := a.acquire(context.Background(), SLOBatch)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want errors.Is ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("no *OverloadError in chain: %v", err)
	}
	if oe.RetryAfter <= 0 || oe.QueueDepth != 1 {
		t.Fatalf("hint = %+v, want positive RetryAfter and depth 1", oe)
	}
	st := a.stats()
	if st.Batch.Shed != 1 {
		t.Fatalf("shed count: %+v", st)
	}

	// Releasing the slot admits the queued waiter (slot handoff).
	drain()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	a.release(SLOInteractive)
}

func TestAdmitDeadlineWhileQueuedIsErrDeadline(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	drain := fillSlots(t, a)
	defer drain()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := a.acquire(ctx, SLOInteractive)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadline wrapping DeadlineExceeded", err)
	}
	st := a.stats()
	if st.Interactive.Canceled != 1 || st.QueueDepth != 0 {
		t.Fatalf("canceled waiter not removed: %+v", st)
	}
}

func TestAdmitCancelWhileQueuedIsCanceledNotDeadline(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	drain := fillSlots(t, a)
	defer drain()

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- a.acquire(ctx, SLOBatch) }()
	waitFor(t, func() bool { return a.stats().QueueDepth == 1 })
	cancel()
	err := <-got
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatalf("a cancel is not a deadline: %v", err)
	}
}

// TestAdmitInteractiveBeforeBatch: with a batch request queued first and
// an interactive one second, the freed slot goes to the interactive
// request — priority lives in the release path, not arrival order.
func TestAdmitInteractiveBeforeBatch(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	drain := fillSlots(t, a)

	order := make(chan SLOClass, 2)
	enqueue := func(class SLOClass) {
		go func() {
			if err := a.acquire(context.Background(), class); err == nil {
				order <- class
			}
		}()
	}
	enqueue(SLOBatch)
	waitFor(t, func() bool { return a.stats().Batch.QueueDepth == 1 })
	enqueue(SLOInteractive)
	waitFor(t, func() bool { return a.stats().Interactive.QueueDepth == 1 })

	drain() // hand the slot to the queue, interactive first
	if first := <-order; first != SLOInteractive {
		t.Fatalf("first grant went to %v, want interactive", first)
	}
	a.release(SLOInteractive)
	if second := <-order; second != SLOBatch {
		t.Fatalf("second grant went to %v, want batch", second)
	}
	a.release(SLOBatch)
	if st := a.stats(); st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("not quiescent: %+v", st)
	}
}

// TestAdmissionReconciliation hammers the queue from many goroutines
// with mixed classes, random hold times and random cancellation, then
// checks the books balance exactly: every arrival is exactly one of
// admitted, shed or canceled; every admit has a matching completion;
// nothing is left inflight or queued.
func TestAdmissionReconciliation(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 3, MaxQueue: 5})
	const workers = 16
	const perWorker = 40

	var admitted, shed, canceled int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < perWorker; i++ {
				class := SLOClass(r.Intn(int(numSLOClasses)))
				ctx, cancel := context.WithCancel(context.Background())
				if r.Intn(4) == 0 {
					// A quarter of arrivals cancel at a random point —
					// before, during or after the queue wait. The delay is
					// drawn here: the worker's RNG is not goroutine-safe.
					delay := time.Duration(r.Intn(300)) * time.Microsecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				err := a.acquire(ctx, class)
				switch {
				case err == nil:
					atomic.AddInt64(&admitted, 1)
					time.Sleep(time.Duration(r.Intn(200)) * time.Microsecond)
					a.release(class)
				case errors.Is(err, ErrOverloaded):
					atomic.AddInt64(&shed, 1)
				case errors.Is(err, context.Canceled):
					atomic.AddInt64(&canceled, 1)
				default:
					t.Errorf("unexpected acquire error: %v", err)
				}
				cancel()
			}
		}(uint64(w) + 1)
	}
	wg.Wait()

	st := a.stats()
	total := func(f func(AdmissionClassStats) int64) int64 {
		return f(st.Interactive) + f(st.Batch)
	}
	if got := admitted + shed + canceled; got != workers*perWorker {
		t.Fatalf("arrivals unaccounted: %d of %d", got, workers*perWorker)
	}
	if got := total(func(c AdmissionClassStats) int64 { return c.Admitted }); got != admitted {
		t.Fatalf("stats admitted %d, callers saw %d", got, admitted)
	}
	if got := total(func(c AdmissionClassStats) int64 { return c.Shed }); got != shed {
		t.Fatalf("stats shed %d, callers saw %d", got, shed)
	}
	if got := total(func(c AdmissionClassStats) int64 { return c.Canceled }); got != canceled {
		t.Fatalf("stats canceled %d, callers saw %d", got, canceled)
	}
	adm := total(func(c AdmissionClassStats) int64 { return c.Admitted })
	comp := total(func(c AdmissionClassStats) int64 { return c.Completed })
	if adm != comp {
		t.Fatalf("admitted %d != completed %d at quiescence", adm, comp)
	}
	if st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
}

func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 100})
	a.mu.Lock()
	a.ewmaNs = float64(100 * time.Millisecond)
	a.waiting = 4
	shallow := a.retryAfterLocked()
	a.waiting = 40
	deep := a.retryAfterLocked()
	a.mu.Unlock()
	// (waiting+1) × svc / slots: 5×100ms/2 and 41×100ms/2.
	if shallow != 250*time.Millisecond || deep != 2050*time.Millisecond {
		t.Fatalf("retry-after = %v / %v, want 250ms / 2.05s", shallow, deep)
	}
}

// TestAdmissionContextDeadline: the per-class deadline is applied to the
// request context and expiry surfaces through the engine as ErrDeadline.
func TestAdmissionContextDeadline(t *testing.T) {
	c := llamaCache(t, WithAdmission(AdmissionConfig{
		MaxConcurrent:       2,
		InteractiveDeadline: time.Nanosecond, // expires before any work
		BatchDeadline:       time.Hour,
	}))
	mustRegister(t, c, travelSchema)

	ctx, cancel := c.AdmissionContext(context.Background(), SLOInteractive)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("interactive context has no deadline")
	}
	time.Sleep(time.Millisecond) // let the nanosecond deadline lapse
	_, err := c.Serve(ctx, `<prompt schema="travel"><miami/>Hi.</prompt>`, ServeOpts{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired serve: got %v, want errors.Is ErrDeadline", err)
	}

	bctx, bcancel := c.AdmissionContext(context.Background(), SLOBatch)
	defer bcancel()
	dl, ok := bctx.Deadline()
	if !ok || time.Until(dl) < 30*time.Minute {
		t.Fatalf("batch deadline = %v %v, want ~1h out", dl, ok)
	}
}

// waitFor polls cond with a deadline; admission grants travel through
// goroutine handoffs, so tests observe them with bounded polling rather
// than sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
