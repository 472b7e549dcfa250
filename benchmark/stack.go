package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/server"
	"repro/promptcache"
)

// clientCount is the number of HTTP connections (and closed-loop
// clients) the benchmark drives: min(nproc, 4), so the load generator
// and the server share the machine without the generator dominating it.
func clientCount() int {
	return min(runtime.NumCPU(), 4)
}

// stack is one running serving stack and the HTTP client that drives
// it. The server runs in a child process (this same binary, see
// serveChild) so that the load generator and the server are scheduled
// by the operating system, as a real client and server are: in one
// process the Go scheduler can hold a client's socket read behind a
// busy prefill for a whole 10 ms time slice, which would be charged to
// TTFT and would collapse the gaps between tokens.
type stack struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser // closing it tells the child to shut down
	stdout  *bufio.Reader
	base    string
	hc      *http.Client
	diskDir string
	// serverHeapMB is the child's heap obtained from the OS, reported as
	// it exits: its high-water mark.
	serverHeapMB float64
}

// Environment variables that turn this binary into the server child.
const (
	envServe   = "PC_BENCHMARK_SERVE"    // workload name
	envScale   = "PC_BENCHMARK_SCALE"    // the plan's size divisor
	envDiskDir = "PC_BENCHMARK_DISK_DIR" // disk tier directory, when tiered
)

// clientOptions is the promptcache configuration a workload's server
// runs with: pcserve's defaults (auto backend, decode scheduler 8) plus
// what the workload states.
func clientOptions(wl *workloadSpec, m *model.Model, diskDir string) ([]promptcache.Option, error) {
	backend, err := promptcache.WithBackend("auto")
	if err != nil {
		return nil, err
	}
	opts := []promptcache.Option{backend, promptcache.WithDecodeScheduler(promptcache.DefaultMaxDecodeBatch)}
	if wl.speculation {
		opts = append(opts, promptcache.WithSpeculation(promptcache.DraftOpts{}))
	}
	if wl.admission {
		opts = append(opts, promptcache.WithAdmission(promptcache.AdmissionConfig{
			MaxConcurrent: admitConcurrent, MaxQueue: admitQueue,
		}))
	}
	if wl.tiers {
		t := wl.traffic[0]
		workingSet := m.Cfg.BytesPerCachedToken(4) * int64(t.modules*t.moduleTokens)
		opts = append(opts,
			promptcache.WithDeviceCapacity(workingSet/3),
			promptcache.WithHostTier(workingSet/3),
			promptcache.WithDiskTier(diskDir, promptcache.CodecFP32))
	}
	return opts, nil
}

// newClient builds the model and the promptcache client of a workload.
func newClient(wl *workloadSpec, diskDir string) (*promptcache.Client, error) {
	m, err := model.New(model.LlamaStyle(vocabSize, modelSeed))
	if err != nil {
		return nil, err
	}
	opts, err := clientOptions(wl, m, diskDir)
	if err != nil {
		return nil, err
	}
	return promptcache.New(m, opts...), nil
}

// serveIfChild runs the server process and reports true when the
// environment says this process is one; main and TestMain call it first.
func serveIfChild() bool {
	workload := os.Getenv(envServe)
	if workload == "" {
		return false
	}
	scale, err := strconv.Atoi(os.Getenv(envScale))
	if err == nil {
		err = serveChild(workload, scale, os.Getenv(envDiskDir))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark server:", err)
		os.Exit(1)
	}
	return true
}

// serveChild is the server process: it builds the workload's client,
// serves the real internal/server handler on a loopback port, prints the
// base URL, and runs until its standard input closes. On the way out it
// prints its heap high-water mark.
func serveChild(workload string, scale int, diskDir string) error {
	wl := workloadByName(workload, scale)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	client, err := newClient(wl, diskDir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.New(client)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("http://%s\n", ln.Addr())

	_, _ = io.Copy(io.Discard, os.Stdin) // returns at EOF or error: either way, time to stop
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("%d\n", ms.HeapSys)
	return err
}

// newStack starts the server child (model build + server start) and
// registers the lexicon and the workload's schemas over HTTP — the
// paper's precompute step. workDir holds the disk tier of a tiered
// workload.
func newStack(ctx context.Context, wl *workloadSpec, gen *generator, workDir string) (_ *stack, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &stack{}
	defer func() {
		if err != nil {
			_ = s.close() // the set-up error is the one to report
		}
	}()
	if wl.tiers {
		if s.diskDir, err = os.MkdirTemp(workDir, "disk-"); err != nil {
			return nil, err
		}
	}
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), envServe+"="+wl.name, envScale+"="+strconv.Itoa(wl.scale), envDiskDir+"="+s.diskDir)
	cmd.Stderr = os.Stderr
	if s.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s.cmd, s.stdout = cmd, bufio.NewReader(out)
	line, err := s.stdout.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("server child did not report its address: %w", err)
	}
	s.base = strings.TrimSpace(line)
	n := clientCount()
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n}}

	vocab, err := json.Marshal(gen.lx.vocab)
	if err != nil {
		return nil, err
	}
	if err := s.call(ctx, http.MethodPut, "/vocab", vocab, nil); err != nil {
		return nil, err
	}
	for _, src := range gen.schemas() {
		if err := s.call(ctx, http.MethodPost, "/schemas", request{Class: classRegister, PML: src}.body(), nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// call makes one non-streaming request and decodes a 200 reply into out
// (when non-nil).
func (s *stack) call(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// snapshot fetches /v1/stats — the same document an operator reads.
func (s *stack) snapshot(ctx context.Context) (promptcache.Snapshot, error) {
	var snap promptcache.Snapshot
	err := s.call(ctx, http.MethodGet, "/v1/stats", nil, &snap)
	return snap, err
}

// close stops the server child, waits until it has ended, and removes
// the disk tier. Closing twice is harmless.
func (s *stack) close() error {
	var errs []error
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.cmd != nil {
		errs = append(errs, s.stdin.Close())
		if line, err := s.stdout.ReadString('\n'); err == nil {
			if b, err := strconv.ParseFloat(strings.TrimSpace(line), 64); err == nil {
				s.serverHeapMB = b / (1 << 20)
			}
		}
		errs = append(errs, s.cmd.Wait())
		s.cmd = nil
	}
	if s.diskDir != "" {
		errs = append(errs, os.RemoveAll(s.diskDir))
	}
	return errors.Join(errs...)
}
