package promptcache

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

const testVocab = tokenizer.WordBase + 2048

const testSchema = `
<schema name="travel">
  You are a helpful travel planner.
  <module name="trip-plan">
    Plan a trip of duration <param name="duration" len="4"/> at a relaxed pace.
  </module>
  <union>
    <module name="tokyo">Tokyo is the capital of Japan with superb food and temples.</module>
    <module name="miami">Miami is a coastal city in Florida with beaches and surf.</module>
  </union>
</schema>`

func newClient(t *testing.T) *Client {
	t.Helper()
	m, err := model.New(model.LlamaStyle(testVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	c := New(m)
	if _, err := c.RegisterSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInferCachedCompletion(t *testing.T) {
	c := newClient(t)
	resp, err := c.Infer(context.Background(), Request{
		Prompt: `<prompt schema="travel"><miami/><user>Plan a beach day.</user></prompt>`,
		Gen:    GenConfig{MaxTokens: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CachedTokens == 0 || resp.NewTokens == 0 {
		t.Fatalf("reuse accounting: %+v", resp)
	}
	if strings.TrimSpace(resp.Text) == "" || len(resp.Tokens) == 0 {
		t.Fatalf("empty generation: %+v", resp)
	}
	if len(resp.Modules) == 0 {
		t.Fatalf("no modules reported: %+v", resp)
	}
}

func TestInferBaselineMatchesCachedSingleModule(t *testing.T) {
	m, err := model.New(model.LlamaStyle(testVocab, 5))
	if err != nil {
		t.Fatal(err)
	}
	c := New(m)
	schema := `<schema name="doc">
	  <module name="contract">The tenant shall pay rent monthly and keep the garden tidy.</module>
	</schema>`
	if _, err := c.RegisterSchema(schema); err != nil {
		t.Fatal(err)
	}
	prompt := `<prompt schema="doc"><contract/>Summarize the obligations.</prompt>`
	cached, err := c.Infer(context.Background(), Request{Prompt: prompt, Gen: GenConfig{MaxTokens: 8}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Infer(context.Background(), Request{Prompt: prompt, Baseline: true, Gen: GenConfig{MaxTokens: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if base.CachedTokens != 0 {
		t.Fatalf("baseline must not reuse: %+v", base)
	}
	// Single module from position 0: cached inference degenerates to
	// prefix sharing and outputs match exactly.
	if cached.Text != base.Text {
		t.Fatalf("cached %q != baseline %q", cached.Text, base.Text)
	}
}

func TestInferPrefillOnly(t *testing.T) {
	c := newClient(t)
	resp, err := c.Infer(context.Background(), Request{
		Prompt:      `<prompt schema="travel"><tokyo/>Plan.</prompt>`,
		PrefillOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "" || len(resp.Tokens) != 0 {
		t.Fatalf("prefill-only must not decode: %+v", resp)
	}
	if resp.CachedTokens == 0 || len(resp.Logits) != testVocab {
		t.Fatalf("prefill-only must still serve: cached=%d logits=%d", resp.CachedTokens, len(resp.Logits))
	}
}

func TestInferStreaming(t *testing.T) {
	c := newClient(t)
	var streamed []string
	resp, err := c.Infer(context.Background(), Request{
		Prompt: `<prompt schema="travel"><miami/>Recommend food.</prompt>`,
		Stream: func(text string) bool { streamed = append(streamed, text); return true },
		Gen:    GenConfig{MaxTokens: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(resp.Tokens) {
		t.Fatalf("streamed %d tokens, response has %d", len(streamed), len(resp.Tokens))
	}
}

// TestInferCancelMidDecode: cancelling the context from inside the
// stream sink aborts generation at the next decode step.
func TestInferCancelMidDecode(t *testing.T) {
	c := newClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err := c.Infer(ctx, Request{
		Prompt: `<prompt schema="travel"><miami/>Recommend food.</prompt>`,
		// would decode forever without cancellation
		Stream: func(string) bool {
			emitted++
			if emitted == 2 {
				cancel()
			}
			return true
		},
		Gen: GenConfig{MaxTokens: 1 << 20},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if emitted > 3 {
		t.Fatalf("decode kept running after cancel: %d tokens emitted", emitted)
	}
}

// TestInferCancelBeforePrefill: an already-cancelled context aborts
// inside the serve path, before any decode.
func TestInferCancelBeforePrefill(t *testing.T) {
	c := newClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Infer(ctx, Request{
		Prompt: `<prompt schema="travel"><tokyo/>Plan a long trip now.</prompt>`,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	c := newClient(t)
	cases := []struct {
		name   string
		prompt string
		want   error
	}{
		{"unknown schema", `<prompt schema="ghost">x</prompt>`, ErrUnknownSchema},
		{"unparsable", `<prompt schema=`, ErrBadPrompt},
		{"unknown module", `<prompt schema="travel"><atlantis/>x</prompt>`, ErrBadPrompt},
		{"union clash", `<prompt schema="travel"><tokyo/><miami/>go</prompt>`, ErrBadPrompt},
		{"no new tokens", `<prompt schema="travel"><miami/></prompt>`, ErrBadPrompt},
		{"arg too long", `<prompt schema="travel"><trip-plan duration="one two three four five six seven"/>ok</prompt>`, ErrArgTooLong},
	}
	for _, tc := range cases {
		_, err := c.Infer(context.Background(), Request{Prompt: tc.prompt})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
	if _, err := c.Infer(context.Background(), Request{}); !errors.Is(err, ErrBadPrompt) {
		t.Errorf("empty request: got %v", err)
	}
	if _, err := c.RegisterSchema("<bogus/>"); !errors.Is(err, ErrBadSchema) {
		t.Errorf("bad schema: got %v", err)
	}
}

func TestSessionMultiTurn(t *testing.T) {
	c := newClient(t)
	sess, first, err := c.NewSession(context.Background(), Request{
		Prompt: `<prompt schema="travel"><miami/><user>Plan a beach day.</user></prompt>`,
		Gen:    GenConfig{MaxTokens: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(first.Text) == "" {
		t.Fatal("empty first reply")
	}
	before := sess.CachedTokens()
	r2, err := sess.Send(context.Background(), "Now add an evening plan.")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(r2.Text) == "" {
		t.Fatal("empty second reply")
	}
	r3, err := sess.Send(context.Background(), "And where should we eat?")
	if err != nil {
		t.Fatal(err)
	}
	_ = r3
	if sess.Turns() != 2 {
		t.Fatalf("turns = %d", sess.Turns())
	}
	if sess.CachedTokens() <= before {
		t.Fatalf("session KV did not grow: %d -> %d", before, sess.CachedTokens())
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Send(context.Background(), "more"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := sess.Close(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("double close: %v", err)
	}
}

// TestSessionDefaultsDropPerTurnFields: the first turn's Stream sink
// must not replay on later Sends — only generation settings persist.
func TestSessionDefaultsDropPerTurnFields(t *testing.T) {
	c := newClient(t)
	firstTurnSink := 0
	sess, _, err := c.NewSession(context.Background(), Request{
		Prompt: `<prompt schema="travel"><miami/><user>Plan a beach day.</user></prompt>`,
		Stream: func(string) bool { firstTurnSink++; return true },
		Gen:    GenConfig{MaxTokens: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := firstTurnSink
	if afterFirst == 0 {
		t.Fatal("first turn should stream")
	}
	resp, err := sess.Send(context.Background(), "Now add an evening plan.")
	if err != nil {
		t.Fatal(err)
	}
	if firstTurnSink != afterFirst {
		t.Fatalf("turn-1 stream sink replayed on turn 2 (%d -> %d calls)", afterFirst, firstTurnSink)
	}
	if len(resp.Tokens) == 0 {
		t.Fatal("turn 2 generated nothing")
	}
}

// TestSessionRollsBackCancelledDecode: a turn cancelled mid-decode must
// not leave the user text or a partial reply in the session history.
func TestSessionRollsBackCancelledDecode(t *testing.T) {
	c := newClient(t)
	sess, _, err := c.NewSession(context.Background(), Request{
		Prompt: `<prompt schema="travel"><miami/><user>Plan a beach day.</user></prompt>`,
		Gen:    GenConfig{MaxTokens: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.CachedTokens()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err = sess.SendOpts(ctx, "a follow-up that will be cancelled mid-decode", Request{
		Stream: func(string) bool {
			emitted++
			if emitted == 2 {
				cancel()
			}
			return true
		},
		Gen: GenConfig{MaxTokens: 1 << 20},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := sess.CachedTokens(); got != before {
		t.Fatalf("cancelled decode left tokens in session KV: %d -> %d", before, got)
	}
	if sess.Turns() != 0 {
		t.Fatalf("cancelled turn counted: %d", sess.Turns())
	}
	if _, err := sess.Send(context.Background(), "a real follow-up"); err != nil {
		t.Fatalf("session unusable after cancelled decode: %v", err)
	}
}

// TestSessionSurvivesCancelledTurn: a turn cancelled mid-prefill rolls
// the session's KV state back; the next Send succeeds.
func TestSessionSurvivesCancelledTurn(t *testing.T) {
	c := newClient(t)
	sess, _, err := c.NewSession(context.Background(), Request{
		Prompt: `<prompt schema="travel"><miami/><user>Plan a beach day.</user></prompt>`,
		Gen:    GenConfig{MaxTokens: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.CachedTokens()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Send(ctx, "a cancelled follow-up turn with plenty of words to prefill"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := sess.CachedTokens(); got != before {
		t.Fatalf("KV not rolled back after cancel: %d -> %d", before, got)
	}
	if _, err := sess.Send(context.Background(), "a real follow-up"); err != nil {
		t.Fatalf("session unusable after cancelled turn: %v", err)
	}
}

func TestInferBatchSharing(t *testing.T) {
	c := newClient(t)
	resp, err := c.InferBatch(context.Background(), BatchRequest{
		Prompts: []string{
			`<prompt schema="travel"><miami/>First question.</prompt>`,
			`<prompt schema="travel"><miami/>Second question.</prompt>`,
			`<prompt schema="travel"><tokyo/>Third question.</prompt>`,
		},
		Gen: GenConfig{MaxTokens: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	if resp.Stats.SharedModules == 0 {
		t.Fatalf("no sharing: %+v", resp.Stats)
	}
	for i, r := range resp.Results {
		if strings.TrimSpace(r.Text) == "" {
			t.Fatalf("result %d empty", i)
		}
	}
	if _, err := c.InferBatch(context.Background(), BatchRequest{}); !errors.Is(err, ErrBadPrompt) {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestSchedulerRoutesAllPaths: every decode — Infer, streaming, session
// turns — runs as a lane of the decode loop, counted in the scheduler
// block, and a client built with the deprecated WithDecodeScheduler
// produces exactly the text of a plain one.
func TestSchedulerRoutesAllPaths(t *testing.T) {
	m, err := model.New(model.LlamaStyle(testVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	plain := New(m)
	m2, err := model.New(model.LlamaStyle(testVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	fused := New(m2, WithDecodeScheduler(4))
	for _, c := range []*Client{plain, fused} {
		if _, err := c.RegisterSchema(testSchema); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	prompt := `<prompt schema="travel"><miami/><user>Plan a beach day.</user></prompt>`

	run := func(c *Client) (infer, streamed, turn string) {
		t.Helper()
		resp, err := c.Infer(ctx, Request{Prompt: prompt, Gen: GenConfig{MaxTokens: 8}})
		if err != nil {
			t.Fatal(err)
		}
		infer = resp.Text
		var sb strings.Builder
		if _, err = c.Infer(ctx, Request{Prompt: prompt, Stream: func(text string) bool {
			sb.WriteString(text)
			return true
		}, Gen: GenConfig{MaxTokens: 8}}); err != nil {
			t.Fatal(err)
		}
		streamed = sb.String()
		sess, _, err := c.NewSession(ctx, Request{Prompt: prompt, Gen: GenConfig{MaxTokens: 8}})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		reply, err := sess.Send(ctx, "tell me more")
		if err != nil {
			t.Fatal(err)
		}
		return infer, streamed, reply.Text
	}

	wantInfer, wantStream, wantTurn := run(plain)
	gotInfer, gotStream, gotTurn := run(fused)
	if gotInfer != wantInfer || gotStream != wantStream || gotTurn != wantTurn {
		t.Fatalf("scheduled output diverged:\ninfer  %q vs %q\nstream %q vs %q\nturn   %q vs %q",
			gotInfer, wantInfer, gotStream, wantStream, gotTurn, wantTurn)
	}
	for _, c := range []*Client{plain, fused} {
		st := c.Snapshot().Scheduler
		if st == nil || st.LanesJoined < 4 || st.LanesJoined != st.LanesRetired {
			t.Fatalf("scheduler did not carry the decodes: %+v", st)
		}
	}
}

// TestSchedulerBatchDecodeFuses: InferBatch decodes its members as
// concurrent lanes, and a client built with the deprecated
// WithDecodeScheduler returns results identical to a plain one's.
func TestSchedulerBatchDecodeFuses(t *testing.T) {
	m, err := model.New(model.LlamaStyle(testVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	plain := New(m)
	m2, err := model.New(model.LlamaStyle(testVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	fused := New(m2, WithDecodeScheduler(4))
	for _, c := range []*Client{plain, fused} {
		if _, err := c.RegisterSchema(testSchema); err != nil {
			t.Fatal(err)
		}
	}
	req := BatchRequest{
		Prompts: []string{
			`<prompt schema="travel"><miami/>One.</prompt>`,
			`<prompt schema="travel"><tokyo/>Two.</prompt>`,
			`<prompt schema="travel"><trip-plan duration="two days"/><miami/>Three.</prompt>`,
		},
		Gen: GenConfig{MaxTokens: 8},
	}
	ctx := context.Background()
	want, err := plain.InferBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fused.InferBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if got.Results[i].Text != want.Results[i].Text {
			t.Fatalf("batch member %d diverged: %q vs %q", i, got.Results[i].Text, want.Results[i].Text)
		}
	}
	if st := fused.Snapshot().Scheduler; st.LanesJoined < int64(len(req.Prompts)) {
		t.Fatalf("batch members did not decode through the scheduler: %+v", st)
	}
}

// TestWarmRestartViaOpen: SaveAll then Open restores a client that
// serves its first cached request without re-encoding, matching the
// pre-restart response exactly under the default fp32 snapshot codec.
func TestWarmRestartViaOpen(t *testing.T) {
	m, err := model.New(model.LlamaStyle(testVocab, 909))
	if err != nil {
		t.Fatal(err)
	}
	orig := New(m)
	if _, err := orig.RegisterSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	req := Request{
		Prompt: `<prompt schema="travel"><tokyo/><user>Plan a temple walk.</user></prompt>`,
		Gen:    GenConfig{MaxTokens: 8},
	}
	want, err := orig.Infer(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if HasSnapshot(dir) {
		t.Fatal("empty dir should have no snapshot")
	}
	if err := orig.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	if !HasSnapshot(dir) {
		t.Fatal("snapshot should be visible after SaveAll")
	}

	restored, err := Open(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Schemas(), orig.Schemas(); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("schemas = %v, want %v", got, want)
	}
	got, err := restored.Infer(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st := restored.Snapshot()
	if st.ModulesEncoded != 0 {
		t.Fatalf("restart re-encoded: %+v", st)
	}
	if st.Tiers.DiskHits == 0 {
		t.Fatal("first request should hit the disk tier")
	}
	if got.Text != want.Text || got.CachedTokens != want.CachedTokens || got.NewTokens != want.NewTokens {
		t.Fatalf("restart response differs: got %q (%d/%d), want %q (%d/%d)",
			got.Text, got.CachedTokens, got.NewTokens, want.Text, want.CachedTokens, want.NewTokens)
	}
}

// TestDiskTierCodecFlagShapes: the codec round-trips through its flag
// form, the shape configuration arrives in.
func TestDiskTierCodecFlagShapes(t *testing.T) {
	for _, name := range []string{"fp32", "int8", "int4"} {
		c, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.String() != name {
			t.Fatalf("codec %q round-tripped to %q", name, c.String())
		}
	}
	if _, err := ParseCodec("bf16"); err == nil {
		t.Fatal("unknown codec should fail")
	}
}
