package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kvcache"
	"repro/internal/pml"
)

// BatchStats reports the memory effect of serving a batch whose prompts
// share prompt modules (§3.4: "Prompt Cache can reduce the memory
// footprint ... allowing for a larger working batch size"). Every prompt's
// KV views alias the module buffers directly, so the footprint is plain
// arithmetic over what the batch's results reference.
type BatchStats struct {
	Prompts int
	// LogicalBytes is what the batch's module states would occupy if
	// every prompt held its own copy (summed over every spliced part of
	// every prompt); PhysicalBytes is the actual shared footprint (each
	// distinct states buffer counted once).
	LogicalBytes, PhysicalBytes int64
	// SharedModules counts part references beyond the first to the same
	// buffer: references minus distinct buffers.
	SharedModules int
}

// Savings returns 1 - physical/logical (0 when nothing shared).
func (b BatchStats) Savings() float64 {
	if b.LogicalBytes == 0 {
		return 0
	}
	return 1 - float64(b.PhysicalBytes)/float64(b.LogicalBytes)
}

// ServeBatch serves a batch of prompts derived from registered schemas:
// each prompt is an ordinary ServeParsed — same plan, same pins, same
// zero-copy views — fanned out over a bounded worker pool
// (ServeOpts.BatchWorkers; default GOMAXPROCS), so prompts importing the
// same module read the one resident copy and prefill concurrently.
// Results are positionally parallel to prompts, identical to serving each
// prompt alone, and like any cached result hold module pins until Closed.
// On error nothing stays pinned: results already served are closed.
func (c *Cache) ServeBatch(ctx context.Context, prompts []string, opts ServeOpts) ([]*ServeResult, BatchStats, error) {
	if len(prompts) == 0 {
		return nil, BatchStats{}, fmt.Errorf("%w: empty batch", ErrBadPrompt)
	}
	stats := BatchStats{Prompts: len(prompts)}
	parsed := make([]*pml.Prompt, len(prompts))
	for i, src := range prompts {
		p, err := pml.ParsePrompt(src)
		if err != nil {
			return nil, stats, fmt.Errorf("batch[%d]: %w: %v", i, ErrBadPrompt, err)
		}
		parsed[i] = p
	}

	workers := opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(prompts) {
		workers = len(prompts)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*ServeResult, len(prompts))
	errs := make([]error, len(prompts))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// A cancelled batch must not keep planning (which can
				// re-encode under the cache lock); bail before serving.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = c.ServeParsed(ctx, parsed[i], opts)
				if errs[i] != nil {
					cancel() // abort the rest of the batch promptly
				}
			}
		}()
	}
	for i := range parsed {
		work <- i
	}
	close(work)
	wg.Wait()

	if i, err := firstCause(errs); err != nil {
		for _, res := range results {
			res.Close()
		}
		return nil, stats, fmt.Errorf("batch[%d]: %w", i, err)
	}

	seen := map[*kvcache.Cache]bool{}
	for _, res := range results {
		for _, st := range res.spliced {
			b := st.Bytes(4)
			stats.LogicalBytes += b
			if seen[st] {
				stats.SharedModules++
				continue
			}
			seen[st] = true
			stats.PhysicalBytes += b
		}
	}
	return results, stats, nil
}

// firstCause picks the error a failed batch reports: the lowest-indexed
// real failure — prompts that aborted only because a sibling failed (or
// the caller cancelled) are casualties, not causes, and are reported only
// when nothing else went wrong.
func firstCause(errs []error) (int, error) {
	cancelIdx := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return i, err
		}
		if cancelIdx < 0 {
			cancelIdx = i
		}
	}
	if cancelIdx >= 0 {
		return cancelIdx, errs[cancelIdx]
	}
	return -1, nil
}
