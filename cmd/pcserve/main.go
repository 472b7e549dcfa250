// Command pcserve runs a Prompt Cache HTTP inference server.
//
// Endpoints:
//
//	POST   /schemas                 {"pml": "<schema ...>"}          register a schema
//	GET    /schemas                                                  list schemas
//	POST   /v1/complete             {"prompt": "<prompt ...>", ...}  cached completion
//	POST   /v1/complete_batch       {"prompts": [...], ...}          batch with shared modules
//	POST   /v1/stream               {"prompt": ...}                  SSE token stream
//	POST   /v1/sessions             {"prompt": ..., "max_tokens":N}  open a multi-turn session
//	POST   /v1/sessions/{id}/send   {"text": "..."}                  advance a session one turn
//	DELETE /v1/sessions/{id}                                         close a session
//	GET    /v1/stats                                                 cache statistics
//	GET    /healthz                                                  liveness
//
// Example:
//
//	pcserve -addr :8080 -arch llama &
//
// With -cache-dir the server is restart-durable: evicted modules spill
// to disk (quantized per -cache-codec) instead of dropping, SIGINT/
// SIGTERM snapshots every registered schema's states, and the next boot
// warm-restores them — the first cached request after a restart pays no
// re-encoding:
//
// With -mine the cache grows itself: the engine watches the uncached
// token streams requests send, promotes hot shared prefixes to
// anonymous cached modules, and splices them bit-exactly into later
// requests — the "mining" block of GET /v1/stats tracks the win.
//
// With -speculate the decode phase speculates: generated token streams
// train a per-serving-class n-gram draft source, and each decode lane
// verifies the draft's proposals in one widened fused step, emitting
// several tokens per step when the draft is right. Output is
// bit-identical to non-speculative decode — requests can opt out per
// call via {"speculation": {"enabled": false}} — and the "speculation"
// block of GET /v1/stats reports acceptance. Requires the decode scheduler
// (-decode-batch > 0).
//
// With -admit N the server survives overload instead of collapsing
// under it: N requests serve concurrently, -admit-queue more wait, and
// further arrivals are shed immediately with HTTP 429 plus a computed
// Retry-After. Requests may carry "slo": "interactive" (default) or
// "batch" — interactive requests are admitted and decode-scheduled
// ahead of batch backfill, and -admit-deadline / -admit-batch-deadline
// bound each class's total latency (expiry is HTTP 504). The
// "admission" block of GET /v1/stats keeps the ledger.
//
// With -backend the tensor kernel backend is pinned: "scalar" is one
// worker, "parallel" and the default "auto" one worker per CPU. Outputs
// are bit-identical at any worker count — they never depend on the
// choice. Startup logs the selection with the detected CPU, and
// the "backend" block of GET /v1/stats reports it.
//
//	pcserve -cache-dir /var/lib/pcserve -cache-codec int8
//	curl -d '{"pml":"<schema name=\"s\"><module name=\"m\">hi</module></schema>"}' localhost:8080/schemas
//	curl -d '{"prompt":"<prompt schema=\"s\"><m/>go</prompt>","max_tokens":16}' localhost:8080/v1/complete
//	curl -d '{"prompt":"<prompt schema=\"s\"><m/><user>hi</user></prompt>"}' localhost:8080/v1/sessions
//	curl -d '{"text":"tell me more"}' localhost:8080/v1/sessions/s1/send
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	arch := flag.String("arch", "llama", "architecture family: llama, llama-large, mpt, falcon, gpt2")
	backend := flag.String("backend", "auto", "tensor kernel backend: auto or parallel (one worker per CPU) or scalar (one worker); outputs are bit-identical at any worker count")
	seed := flag.Uint64("seed", 1, "weight seed")
	vocab := flag.Int("vocab", tokenizer.WordBase+8192, "vocabulary size")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "maximum concurrently open sessions")
	sessionIdle := flag.Duration("session-idle", server.DefaultSessionIdleTimeout, "idle age after which abandoned sessions are reaped")
	decodeBatch := flag.Int("decode-batch", promptcache.DefaultMaxDecodeBatch, "continuous-batching decode width: concurrent generations fuse into shared model steps (0 disables the scheduler)")
	cacheDir := flag.String("cache-dir", "", "durable cache directory: evicted modules spill here instead of dropping, and registered schemas persist across restarts (SIGINT/SIGTERM snapshots, next boot warm-restores)")
	cacheCodec := flag.String("cache-codec", "int8", "disk-tier codec: fp32 (bit-exact), int8 or int4")
	speculate := flag.Bool("speculate", false, "speculative decoding: train an n-gram draft source on served traffic and verify its proposals in widened fused steps; output is bit-identical, only tokens-per-step changes (requires the decode scheduler)")
	specDraft := flag.Int("speculate-draft", 0, "speculation: max draft tokens verified per fused step (0 = default)")
	specContext := flag.Int("speculate-context", 0, "speculation: n-gram context length of the draft source (0 = default)")
	specHalfLife := flag.Float64("speculate-half-life", 0, "speculation: draft-transition decay half-life in observed streams (0 = default)")
	mine := flag.Bool("mine", false, "automatic module mining: observe uncached token streams and promote hot shared prefixes to anonymous cached modules")
	mineMinHits := flag.Float64("mine-min-hits", 0, "mining: observations before a prefix is promoted (0 = default)")
	mineMinTokens := flag.Int("mine-min-tokens", 0, "mining: shortest prefix worth promoting (0 = default)")
	mineMaxMods := flag.Int("mine-max-modules", 0, "mining: live mined-module budget (0 = default)")
	mineHalfLife := flag.Float64("mine-half-life", 0, "mining: reuse-score half-life in observed serves (0 = default)")
	admit := flag.Int("admit", 0, "admission control: concurrent-request slots; overflow queues, a full queue sheds HTTP 429 + Retry-After (0 disables admission)")
	admitQueue := flag.Int("admit-queue", 0, "admission: waiting requests beyond the slots before shedding (0 = default when -admit is set)")
	admitDeadline := flag.Duration("admit-deadline", 0, "admission: per-request deadline for interactive requests, queueing included; expiry is HTTP 504 (0 = none)")
	admitBatchDeadline := flag.Duration("admit-batch-deadline", 0, "admission: per-request deadline for batch-class requests (0 = none)")
	flag.Parse()

	var cfg model.Config
	switch *arch {
	case "llama":
		cfg = model.LlamaStyle(*vocab, *seed)
	case "llama-large":
		cfg = model.LlamaStyleLarge(*vocab, *seed)
	case "mpt":
		cfg = model.MPTStyle(*vocab, *seed)
	case "falcon":
		cfg = model.FalconStyle(*vocab, *seed)
	case "gpt2":
		cfg = model.GPT2Style(*vocab, *seed)
	default:
		log.Fatalf("pcserve: unknown architecture %q", *arch)
	}
	m, err := model.New(cfg)
	if err != nil {
		log.Fatalf("pcserve: %v", err)
	}
	// One client — and so one decode scheduler — behind every endpoint:
	// completions, streams and session turns arriving together fuse into
	// the same batched decode steps.
	var opts []promptcache.Option
	bkOpt, err := promptcache.WithBackend(*backend)
	if err != nil {
		log.Fatalf("pcserve: %v", err)
	}
	opts = append(opts, bkOpt)
	if *decodeBatch > 0 {
		opts = append(opts, promptcache.WithDecodeScheduler(*decodeBatch))
	}
	if *speculate {
		if *decodeBatch <= 0 {
			log.Fatalf("pcserve: -speculate requires the decode scheduler (-decode-batch > 0)")
		}
		opts = append(opts, promptcache.WithSpeculation(promptcache.DraftOpts{
			MaxDraft: *specDraft,
			Context:  *specContext,
			HalfLife: *specHalfLife,
		}))
	}
	if *mine {
		opts = append(opts, promptcache.WithModuleMining(promptcache.MiningOpts{
			MinHits:    *mineMinHits,
			MinTokens:  *mineMinTokens,
			MaxModules: *mineMaxMods,
			HalfLife:   *mineHalfLife,
		}))
	}
	if *admit > 0 || *admitQueue > 0 || *admitDeadline > 0 || *admitBatchDeadline > 0 {
		opts = append(opts, promptcache.WithAdmission(promptcache.AdmissionConfig{
			MaxConcurrent:       *admit,
			MaxQueue:            *admitQueue,
			InteractiveDeadline: *admitDeadline,
			BatchDeadline:       *admitBatchDeadline,
		}))
	}
	var codec promptcache.Codec
	if *cacheDir != "" {
		var err error
		if codec, err = promptcache.ParseCodec(*cacheCodec); err != nil {
			log.Fatalf("pcserve: %v", err)
		}
		opts = append(opts, promptcache.WithDiskTier(*cacheDir, codec))
	}

	// With a cache dir, a previous run's snapshot warm-restores: every
	// schema it held serves its first cached request without re-encoding.
	var client *promptcache.Client
	if *cacheDir != "" && promptcache.HasSnapshot(*cacheDir) {
		var err error
		if client, err = promptcache.Open(m, *cacheDir, opts...); err != nil {
			// A damaged or mismatched snapshot must not crash-loop the
			// server under a supervisor: degrade to a cold start (schemas
			// re-register and re-encode as they arrive) and keep the dir
			// for spills and the next snapshot.
			log.Printf("pcserve: restoring %s failed (%v); starting cold", *cacheDir, err)
		}
	}
	if client != nil {
		fmt.Printf("pcserve: warm restart from %s (%d schemas)\n", *cacheDir, len(client.Schemas()))
	} else {
		client = promptcache.New(m, opts...)
	}

	srv := server.New(client)
	srv.MaxSessions = *maxSessions
	srv.SessionIdleTimeout = *sessionIdle
	fmt.Printf("pcserve: %s model on %s\n", cfg.Name, *addr)
	bk := client.Model().Backend()
	fmt.Printf("pcserve: tensor backend %s (%d workers; %s)\n", bk.Name(), bk.Workers(), hw.DetectCPU())

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	if *cacheDir == "" {
		log.Fatal(httpSrv.ListenAndServe())
		return
	}
	// SIGINT/SIGTERM: stop accepting traffic, snapshot the cache, exit —
	// the write half of the warm-restart loop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("pcserve: drain timed out after 10s; snapshotting with requests still in flight")
		} else {
			log.Printf("pcserve: shutdown: %v", err)
		}
	}
	if err := client.SaveAll(*cacheDir); err != nil {
		log.Fatalf("pcserve: saving %s: %v", *cacheDir, err)
	}
	fmt.Printf("pcserve: cache saved to %s (%s codec)\n", *cacheDir, codec)
}
