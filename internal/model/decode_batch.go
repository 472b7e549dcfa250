package model

import (
	"fmt"
	"sync"

	"repro/internal/kvcache"
)

// DecodeLane is one sequence's slot in a fused decode batch. It owns the
// pooled scratch the lane's forward passes run in, so a lane that decodes
// a whole reply through DecodeStepBatch allocates nothing per token —
// exactly the property the solo decode loop has. Acquire with
// NewDecodeLane, release with Close.
//
// A lane is not synchronized: it belongs to whichever goroutine is
// driving the batch (the continuous-batching scheduler, or a solo
// generation loop using itself as a batch of one).
type DecodeLane struct {
	m *Model
	// sc runs step position 0; extra holds pooled scratch for positions
	// 1..k-1 of a multi-position step, kept for the lane's lifetime so
	// steady speculative decode allocates nothing per step.
	sc    *scratch
	extra []*scratch

	// per-step state, valid between a step call and the next: pos and
	// rows are each position's query position and attention row count
	// (kv.Len() right after its AppendPos), len(pos) the step's k.
	err  error
	skip bool // lane failed validation; excluded from the fused walk
	pos  []int
	rows []int
}

// NewDecodeLane acquires a lane backed by pooled scratch.
func (m *Model) NewDecodeLane() *DecodeLane {
	return &DecodeLane{m: m, sc: m.getScratch()}
}

// Close returns the lane's scratch to the model pool. The lane (and any
// logits it returned) must not be used afterwards. Closing twice is safe.
func (l *DecodeLane) Close() {
	if l.sc != nil {
		l.m.putScratch(l.sc)
		l.sc = nil
	}
	for _, sc := range l.extra {
		l.m.putScratch(sc)
	}
	l.extra = nil
}

// Logits returns the lane's next-token logits from the latest
// DecodeStepBatch call. The slice aliases lane scratch: it is valid until
// the lane's next step or Close, and must not be mutated.
func (l *DecodeLane) Logits() []float32 { return l.sc.lgOut }

// LogitsAt returns the next-token logits computed at position j of the
// latest DecodeStepBatchMulti call (LogitsAt(0) == Logits()). Same
// aliasing rules as Logits.
func (l *DecodeLane) LogitsAt(j int) []float32 { return l.scratchAt(j).lgOut }

// scratchAt maps a step position to its scratch: position 0 is the
// lane's own, the rest come from the extra pool.
func (l *DecodeLane) scratchAt(j int) *scratch {
	if j == 0 {
		return l.sc
	}
	return l.extra[j-1]
}

// Err reports the lane's failure from the latest step call, or nil. A
// failed lane appended nothing to its cache; other lanes in the same
// batch are unaffected.
func (l *DecodeLane) Err() error { return l.err }

// begin opens the lane's next step over toks at poss: validate, embed
// each token into its position's scratch, and record the positions in kv
// ahead of the layer walk, mirroring the head of step(). Validation is
// all-or-nothing: a lane with any out-of-range token or position appends
// nothing and sits the walk out, reporting through Err().
func (l *DecodeLane) begin(toks, poss []int, kv kvcache.KV) {
	m := l.m
	l.err, l.skip = nil, false
	l.pos, l.rows = l.pos[:0], l.rows[:0]
	for j := range toks {
		if l.err = m.checkToken(toks[j], poss[j]); l.err != nil {
			l.skip = true
			return
		}
	}
	for len(l.extra) < len(toks)-1 {
		l.extra = append(l.extra, m.getScratch())
	}
	for j := range toks {
		m.embed(l.scratchAt(j).x, toks[j], poss[j])
		kv.AppendPos(poss[j])
		l.pos = append(l.pos, poss[j])
		l.rows = append(l.rows, kv.Len())
	}
}

// DecodeStepBatch runs one fused autoregressive step for every lane:
// lane i appends tokens[i] at positions[i] to kvs[i] and computes its
// next-token logits (read them with lanes[i].Logits()). It is the k = 1
// case of DecodeStepBatchMulti, which documents the walk.
func (m *Model) DecodeStepBatch(lanes []*DecodeLane, tokens, positions []int, kvs []kvcache.KV) error {
	if len(lanes) != len(tokens) || len(lanes) != len(positions) || len(lanes) != len(kvs) {
		return fmt.Errorf("model: DecodeStepBatch lanes=%d tokens=%d positions=%d kvs=%d",
			len(lanes), len(tokens), len(positions), len(kvs))
	}
	for i, ln := range lanes {
		ln.begin(tokens[i:i+1], positions[i:i+1], kvs[i])
	}
	m.walkLanes(lanes, kvs)
	return nil
}

// DecodeStepBatchMulti is the fused decode step: lane i appends
// tokens[i][j] at positions[i][j] to kvs[i] for every j and computes
// next-token logits at each of its k positions (read them with
// lanes[i].LogitsAt(j)). k = 1 is ordinary decode; k > 1 is the
// speculative verify step scoring several consecutive draft tokens. The
// layer loop runs once for the whole batch — each layer's weights are
// walked a single time while every lane and position passes through it —
// which is what lets a continuous-batching scheduler charge N concurrent
// generations one shared model traversal per step instead of N.
//
// Bit-identity with sequential solo decode is structural: the walk is
// layer-outer, lane-inner, position-inner, and every position runs the
// same layerToken body step() does, over its own scratch, with exactly
// the inputs a solo decode would give it. Position j's attention at
// layer l sees rows 0..base+j, whose layer-l K/V values were appended
// earlier in the same layer pass and equal the sequential values. So if
// the scored tokens match what solo decode would have sampled, the logits
// at every position match bit-for-bit — the invariant the acceptance loop
// in internal/core relies on, and what lets rejected drafts fall back to
// the verified token without recomputing anything.
//
// Lane failures (token out of vocab, position out of range) are reported
// per lane via Err() without disturbing the rest of the batch; the
// returned error is reserved for malformed calls (mismatched slice
// shapes, empty lanes), which are rejected before any cache is touched.
func (m *Model) DecodeStepBatchMulti(lanes []*DecodeLane, tokens, positions [][]int, kvs []kvcache.KV) error {
	if len(lanes) != len(tokens) || len(lanes) != len(positions) || len(lanes) != len(kvs) {
		return fmt.Errorf("model: DecodeStepBatchMulti lanes=%d tokens=%d positions=%d kvs=%d",
			len(lanes), len(tokens), len(positions), len(kvs))
	}
	for i := range lanes {
		if len(tokens[i]) == 0 || len(tokens[i]) != len(positions[i]) {
			return fmt.Errorf("model: DecodeStepBatchMulti lane %d has %d tokens but %d positions",
				i, len(tokens[i]), len(positions[i]))
		}
	}
	for i, ln := range lanes {
		ln.begin(tokens[i], positions[i], kvs[i])
	}
	m.walkLanes(lanes, kvs)
	return nil
}

// walkLanes runs the fused layer walk and the batched output head for
// lanes whose steps begin() opened.
func (m *Model) walkLanes(lanes []*DecodeLane, kvs []kvcache.KV) {
	if len(lanes) == 0 {
		return
	}
	// Lanes share nothing but the read-only weights, so a multi-worker
	// backend fans whole lanes out across goroutines — each worker runs
	// the full layer loop for a contiguous lane range, which cannot
	// change any lane's operation sequence or numbers.
	active := 0
	for _, ln := range lanes {
		if !ln.skip {
			active++
		}
	}
	if workers := m.bk.Workers(); workers > 1 && active >= 2 {
		if workers > len(lanes) {
			workers = len(lanes)
		}
		chunk := (len(lanes) + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < len(lanes); lo += chunk {
			hi := lo + chunk
			if hi > len(lanes) {
				hi = len(lanes)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				m.stepLanes(lanes[lo:hi], kvs[lo:hi])
			}(lo, hi)
		}
		wg.Wait()
	} else {
		m.stepLanes(lanes, kvs)
	}

	// Output head, batched over every (lane, position) pair: the embedding
	// (tied head) is the model's largest matrix and decode streams all of
	// it per step, so walking each vocab row once for all k·N logit
	// vectors is the fused step's main memory-bandwidth win. Per-vector
	// dot products are unchanged in value and order. The header slices
	// live in the first lane's pooled scratch, so steady decode reuses
	// them.
	head := lanes[0].sc
	dsts, hs := head.dsts[:0], head.hs[:0]
	for _, ln := range lanes {
		if ln.skip {
			continue
		}
		for j := range ln.pos {
			sc := ln.scratchAt(j)
			if sc.lgOut == nil {
				sc.lgH = make([]float32, m.Cfg.Dim)
				sc.lgOut = make([]float32, m.Cfg.VocabSize)
			}
			m.norm(sc.lgH, sc.x, m.finalNormW, m.finalNormB)
			dsts = append(dsts, sc.lgOut)
			hs = append(hs, sc.lgH)
		}
	}
	m.bk.OutputHead(dsts, m.embedding, hs)
	head.dsts, head.hs = dsts, hs
}

// stepLanes is the one fused layer walk — layer-outer, lane-inner,
// position-inner — for a lane range.
func (m *Model) stepLanes(lanes []*DecodeLane, kvs []kvcache.KV) {
	for l := range m.layers {
		for i, ln := range lanes {
			if ln.skip {
				continue
			}
			for j, pos := range ln.pos {
				m.layerToken(l, ln.scratchAt(j), kvs[i], ln.rows[j], pos)
			}
		}
	}
}
