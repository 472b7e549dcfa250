package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// result is the client-side record of one operation.
type result struct {
	req   request
	phase int       // open-loop phase, 0 in closed loops
	start time.Time // send time (closed loop) or due time (open loop)
	first time.Time // first token event
	last  time.Time // last token event, or the reply for a register op
	n     int       // token events received
	text  []string  // token texts, kept only when asked
	// cached and fresh are the prompt's reused and newly computed token
	// counts, as the done event reports them.
	cached, fresh int
	err           error // transport error, refusal, error event or wrong length
}

// sseEvent is one server-sent event of /v1/stream.
type sseEvent struct {
	Token        *string `json:"token"`
	Done         bool    `json:"done"`
	Error        string  `json:"error"`
	CachedTokens int     `json:"cached_tokens"`
	NewTokens    int     `json:"new_tokens"`
}

var dataPrefix = []byte("data: ")

// do sends one generated operation and records what a client observes.
// start is the instant latency is measured from.
func (s *stack) do(ctx context.Context, q request, start time.Time, keepText bool) result {
	res := result{req: q, start: start}
	if q.Class == classRegister {
		res.err = s.call(ctx, http.MethodPost, q.Path, q.body(), nil)
		res.last = time.Now()
		return res
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+q.Path, bytes.NewReader(q.body()))
	if err != nil {
		res.err = err
		return res
	}
	resp, err := s.hc.Do(hreq)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // best effort: the status is the failure
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return res
	}
	done := false
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			if err != io.EOF {
				res.err = err
			}
			break
		}
		if !bytes.HasPrefix(line, dataPrefix) {
			continue
		}
		var ev sseEvent
		if err := json.Unmarshal(line[len(dataPrefix):], &ev); err != nil {
			res.err = fmt.Errorf("bad event %q: %w", line, err)
			break
		}
		switch {
		case ev.Token != nil:
			if res.n == 0 {
				res.first = now
			}
			res.last = now
			res.n++
			if keepText {
				res.text = append(res.text, *ev.Token)
			}
		case ev.Error != "":
			res.err = fmt.Errorf("error event: %s", ev.Error)
		case ev.Done:
			done = true
			res.cached, res.fresh = ev.CachedTokens, ev.NewTokens
		}
	}
	switch {
	case res.err != nil:
	case !done:
		res.err = fmt.Errorf("stream ended without a done event after %d tokens", res.n)
	case res.n != q.MaxTokens:
		res.err = fmt.Errorf("got %d tokens, want exactly %d", res.n, q.MaxTokens)
	}
	return res
}

// closedLoop runs `clients` clients, each sending its next request only
// after the previous reply completed. Operations are gen.request(from),
// gen.request(from+1), ... drawn from a shared counter; the loop ends
// after count operations when count > 0, otherwise when `until` passes
// (operations in flight then still complete and count).
func (s *stack) closedLoop(ctx context.Context, gen *generator, from, count int, until time.Time, keepText bool) []result {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
	)
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []result
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if count > 0 && i >= count {
					break
				}
				if count <= 0 && !time.Now().Before(until) {
					break
				}
				mine = append(mine, s.do(ctx, gen.request(from+i), time.Now(), keepText))
			}
			mu.Lock()
			results = append(results, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return results
}

// openStats is what the open loop knows beyond its results.
type openStats struct {
	lag     []time.Duration // how late each request was handed to the queue
	backlog []int           // requests queued, not yet in service, at each phase end
}

// openLoop offers requests on the generated arrival schedule, phase
// after phase, regardless of completions. Requests wait in the
// generator's queue while all connections are busy and are timed from
// when they were due, so a stall is charged to every request it delays.
func (s *stack) openLoop(ctx context.Context, gen *generator, from int, phase time.Duration) ([]result, openStats) {
	type job struct {
		q     request
		phase int
		due   time.Time
	}
	var schedule [][]time.Duration
	total := 0
	for p, rate := range gen.wl.rates {
		schedule = append(schedule, gen.arrivals(p, rate, phase))
		total += len(schedule[p])
	}
	jobs := make(chan job, total) // holds every send: the dispatcher never blocks
	var (
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
	)
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []result
			for j := range jobs {
				r := s.do(ctx, j.q, j.due, false)
				r.phase = j.phase
				mine = append(mine, r)
			}
			mu.Lock()
			results = append(results, mine...)
			mu.Unlock()
		}()
	}
	var st openStats
	i := from
	begin := time.Now()
	for p, offsets := range schedule {
		phaseStart := begin.Add(time.Duration(p) * phase)
		for _, off := range offsets {
			due := phaseStart.Add(off)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			st.lag = append(st.lag, time.Since(due))
			jobs <- job{q: gen.request(i), phase: p, due: due}
			i++
		}
		if d := time.Until(phaseStart.Add(phase)); d > 0 {
			time.Sleep(d)
		}
		st.backlog = append(st.backlog, len(jobs))
	}
	close(jobs)
	wg.Wait()
	return results, st
}
