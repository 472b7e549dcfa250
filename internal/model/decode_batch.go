package model

import (
	"fmt"

	"repro/internal/kvcache"
)

// DecodeLane is one sequence's slot in a fused decode batch. It owns the
// pooled block the lane's steps run in, so a lane that decodes a whole
// reply through DecodeStepBatch allocates nothing per token. Acquire with
// NewDecodeLane, release with Close.
//
// A lane is not synchronized: it belongs to whichever goroutine is
// driving the batch (the decode loop in internal/core: its fused run
// loop, or a caller driving a batch of one).
type DecodeLane struct {
	m *Model
	// b holds a step's k positions as its rows, and their logits until
	// the next step.
	b *block

	// err and skip report the latest step: a lane that failed validation
	// appended nothing and sat the walk out.
	err  error
	skip bool
}

// NewDecodeLane acquires a lane backed by a pooled block.
func (m *Model) NewDecodeLane() *DecodeLane {
	return &DecodeLane{m: m, b: m.getBlock()}
}

// Close returns the lane's block to the model pool. The lane (and any
// logits it returned) must not be used afterwards. Closing twice is safe.
func (l *DecodeLane) Close() {
	if l.b != nil {
		l.m.putBlock(l.b)
		l.b = nil
	}
}

// LogitsAt returns the next-token logits computed at position j of the
// lane's latest step (j = 0 after a DecodeStepBatch). The slice aliases
// lane scratch: it is valid until the lane's next step or Close, and must
// not be mutated.
func (l *DecodeLane) LogitsAt(j int) []float32 { return l.b.logits.Row(j) }

// Err reports the lane's failure from the latest step call, or nil. A
// failed lane appended nothing to its cache; other lanes in the same
// batch are unaffected.
func (l *DecodeLane) Err() error { return l.err }

// begin opens the lane's next step over toks at poss as its block, or
// marks the lane failed without touching kv.
func (l *DecodeLane) begin(toks, poss []int, kv kvcache.KV) {
	l.err = l.m.check(toks, poss)
	if l.skip = l.err != nil; !l.skip {
		l.m.begin(l.b, toks, poss, kv)
	}
}

// DecodeStepBatch runs one fused autoregressive step for every lane:
// lane i appends tokens[i] at positions[i] to kvs[i] and computes its
// next-token logits (read them with lanes[i].LogitsAt(0)). It is the k = 1
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
// walked a single time while every lane passes through it — which is
// what lets a continuous-batching scheduler charge N concurrent
// generations one shared model traversal per step instead of N.
//
// Bit-identity with sequential Decode is structural: the walk is
// layer-outer, lane-inner, and each lane's k positions run as one block
// through layerBlock, the body Decode (k = 1) and Prefill (k = n) run,
// with exactly the inputs a sequence of Decode calls would give them. A
// weight application reads each weight once for all k rows yet sums
// every element as a single row would, and position j's attention at layer l
// sees rows 0..base+j, whose layer-l K/V values were appended earlier in
// the same pass and equal the sequential values. So if the scored tokens
// match what sequential decode would have sampled, the logits at every
// position match bit-for-bit — the invariant the acceptance loop in
// internal/core relies on, and what lets rejected drafts fall back to
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

// walkLanes runs the fused layer walk and each lane's output head for
// lanes whose steps begin() opened.
func (m *Model) walkLanes(lanes []*DecodeLane, kvs []kvcache.KV) {
	// Lanes share nothing but the read-only weights, so a multi-worker
	// backend fans whole lanes out across goroutines — each worker runs
	// the full layer loop for a contiguous lane range, which cannot
	// change any lane's operation sequence or numbers. One worker steps
	// the lanes inline, with no closure to allocate.
	active := 0
	for _, ln := range lanes {
		if !ln.skip {
			active++
		}
	}
	if m.bk.Workers() > 1 && active >= 2 {
		m.bk.Shard(len(lanes), func(lo, hi int) { m.stepLanes(lanes[lo:hi], kvs[lo:hi]) })
	} else {
		m.stepLanes(lanes, kvs)
	}
}

// stepLanes is the fused layer walk — layer-outer, lane-inner — for a
// lane range: each lane's block passes through layer l before any lane
// reaches layer l+1. Then each lane's k rows go through the output
// head: the final norm reuses the block's h rows, free once the walk is
// done, and one MatMul by the transposed embedding writes every row's
// logits, each the sum a one-row forward computes.
func (m *Model) stepLanes(lanes []*DecodeLane, kvs []kvcache.KV) {
	for l := range m.layers {
		for i, ln := range lanes {
			if !ln.skip {
				m.layerBlock(l, ln.b, kvs[i])
			}
		}
	}
	for _, ln := range lanes {
		if ln.skip {
			continue
		}
		b := ln.b
		for j := range b.pos {
			m.norm(b.h.Row(j), b.x.Row(j), m.finalNormW, m.finalNormB)
		}
		setRows(&b.logits, len(b.pos))
		m.bk.MatMul(&b.logits, &b.h, m.embT)
	}
}
