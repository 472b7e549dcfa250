package promptcache

import (
	"context"
	"sync"

	"repro/internal/core"
)

// BatchRequest completes several prompts in one call. Prompts importing
// the same module read the one resident copy of its attention states
// (§3.4's batch-memory optimization).
type BatchRequest struct {
	Prompts []string
	// DisableScaffolds applies to every prompt in the batch.
	DisableScaffolds bool
	// PrefillOnly skips the decode phase for the whole batch.
	PrefillOnly bool
	// Gen carries the generation settings shared by all prompts. Note
	// the batch always admits as SLOBatch regardless of Gen.SLO — a bulk
	// request is batch traffic by definition.
	Gen GenConfig
}

// BatchResponse carries per-prompt results (positionally parallel to the
// request's prompts) plus the sharing effect.
type BatchResponse struct {
	Results []*Response
	Stats   core.BatchStats
}

// InferBatch serves and generates a batch of prompts: each is an ordinary
// cached serve, run concurrently over min(GOMAXPROCS, prompts) workers, so
// members share module states exactly as concurrent Infer calls do.
// Cancelling ctx aborts between (and inside) per-prompt prefills and
// decode steps.
func (c *Client) InferBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	// A batch occupies one admission slot as a unit — it is one caller's
	// bulk request, not N independent arrivals — and it always rides the
	// batch lane: interactive traffic is admitted and decoded ahead of it.
	ctx, done, err := c.admit(ctx, SLOBatch)
	if err != nil {
		return nil, err
	}
	defer done()
	results, stats, err := c.cache.ServeBatch(ctx, req.Prompts, core.ServeOpts{
		DisableScaffolds: req.DisableScaffolds,
	})
	if err != nil {
		return nil, err
	}
	// Members hold module pins like any serve; release them once the
	// batch is done decoding, whichever way it ends.
	defer func() {
		for _, res := range results {
			res.Close()
		}
	}()
	out := &BatchResponse{Stats: stats, Results: make([]*Response, len(results))}
	one := Request{PrefillOnly: req.PrefillOnly, Gen: req.Gen}
	// Generate every member concurrently, each member's lane on its own
	// goroutine. Only with the stateless default sampler, though: the
	// request's one Sampler is shared across members, and concurrent
	// lanes would consume its state in nondeterministic member order.
	if !req.PrefillOnly && req.Gen.Sampler == nil && len(results) > 1 {
		errs := make([]error, len(results))
		var wg sync.WaitGroup
		for i, res := range results {
			wg.Add(1)
			go func(i int, res *core.ServeResult) {
				defer wg.Done()
				out.Results[i], errs[i] = c.generate(ctx, res, one)
			}(i, res)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for i, res := range results {
		resp, err := c.generate(ctx, res, one)
		if err != nil {
			return nil, err
		}
		out.Results[i] = resp
	}
	return out, nil
}
