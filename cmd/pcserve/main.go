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
// to disk instead of dropping, SIGINT/SIGTERM snapshots every registered
// schema's states, and the next boot warm-restores them — the first
// cached request after a restart pays no re-encoding. The blobs are fp32
// by default, so a spilled or restored module serves bit-identically;
// -cache-codec int8 or int4 trades that for ~3.5× or ~6× smaller blobs:
//
//	pcserve -cache-dir /var/lib/pcserve
//
// With -speculate the decode phase speculates: generated token streams
// train a per-serving-class n-gram draft source, and each decode lane
// verifies the draft's proposals in one widened step, emitting several
// tokens per step when the draft is right (up to 4 drafts per step; a
// request's "max_draft" can narrow that). Output is bit-identical to
// non-speculative decode — requests can opt out per call via
// {"speculation": {"enabled": false}} — and the "speculation" block of
// GET /v1/stats reports acceptance. Each request decodes on its own
// goroutine, speculating or not, and the "scheduler" block of
// GET /v1/stats counts its lanes and steps.
//
// With -admit N the server survives overload instead of collapsing
// under it: N requests serve concurrently, -admit-queue more wait, and
// further arrivals are shed immediately with HTTP 429 plus a computed
// Retry-After. Requests may carry "slo": "interactive" (default) or
// "batch" — interactive requests are admitted ahead of batch backfill,
// and -admit-deadline / -admit-batch-deadline bound each class's total
// latency (expiry is HTTP 504). The "admission" block of GET /v1/stats
// keeps the ledger.
//
// With -backend the tensor kernel backend is pinned: "scalar" is one
// worker, "parallel" and the default "auto" one worker per CPU. Outputs
// are bit-identical at any worker count — they never depend on the
// choice. Startup logs the selection with the detected CPU, and
// the "backend" block of GET /v1/stats reports it.
//
// Once a server is up, drive it with:
//
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
	"strings"
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
	arch := flag.String("arch", "llama", "architecture family: "+strings.Join(model.PresetNames(), ", "))
	backend := flag.String("backend", "auto", "tensor kernel backend: auto or parallel (one worker per CPU) or scalar (one worker); outputs are bit-identical at any worker count")
	seed := flag.Uint64("seed", 1, "weight seed")
	vocab := flag.Int("vocab", tokenizer.WordBase+8192, "vocabulary size")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "maximum concurrently open sessions")
	sessionIdle := flag.Duration("session-idle", server.DefaultSessionIdleTimeout, "idle age after which abandoned sessions are reaped")
	cacheDir := flag.String("cache-dir", "", "durable cache directory: evicted modules spill here instead of dropping, and registered schemas persist across restarts (SIGINT/SIGTERM snapshots, next boot warm-restores)")
	cacheCodec := flag.String("cache-codec", "fp32", "disk-tier codec: fp32 (bit-exact), int8 or int4")
	speculate := flag.Bool("speculate", false, "speculative decoding: train an n-gram draft source on served traffic and verify its proposals in widened decode steps; output is bit-identical, only tokens-per-step changes")
	admit := flag.Int("admit", 0, "admission control: concurrent-request slots; overflow queues, a full queue sheds HTTP 429 + Retry-After (0 disables admission)")
	admitQueue := flag.Int("admit-queue", 0, "admission: waiting requests beyond the slots before shedding (0 = default when -admit is set)")
	admitDeadline := flag.Duration("admit-deadline", 0, "admission: per-request deadline for interactive requests, queueing included; expiry is HTTP 504 (0 = none)")
	admitBatchDeadline := flag.Duration("admit-batch-deadline", 0, "admission: per-request deadline for batch-class requests (0 = none)")
	flag.Parse()

	cfg, err := model.Preset(*arch, *vocab, *seed)
	if err != nil {
		log.Fatalf("pcserve: %v", err)
	}
	m, err := model.New(cfg)
	if err != nil {
		log.Fatalf("pcserve: %v", err)
	}
	// One client behind every endpoint: completions, streams and session
	// turns share one module cache.
	var opts []promptcache.Option
	bkOpt, err := promptcache.WithBackend(*backend)
	if err != nil {
		log.Fatalf("pcserve: %v", err)
	}
	opts = append(opts, bkOpt)
	if *speculate {
		opts = append(opts, promptcache.WithSpeculation(promptcache.DraftOpts{}))
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
			log.Printf("pcserve: drain timed out after 10s; snapshotting while requests finish (the snapshot is the registry at its cut)")
		} else {
			log.Printf("pcserve: shutdown: %v", err)
		}
	}
	if err := client.SaveAll(*cacheDir); err != nil {
		log.Fatalf("pcserve: saving %s: %v", *cacheDir, err)
	}
	fmt.Printf("pcserve: cache saved to %s (%s codec)\n", *cacheDir, codec)
}
