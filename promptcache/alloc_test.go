// The race detector makes sync.Pool drop items at random, so allocation
// counts only repeat without it.

//go:build !race

package promptcache

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestCachedServeAllocationIndependentOfPrefix is the zero-copy claim as
// a deterministic fact: a cached serve splices module states as views,
// so what it allocates does not depend on how long the cached prefix is,
// while the baseline's prefill allocates in proportion to it. The scalar
// backend is pinned because the parallel one allocates per fan-out.
func TestCachedServeAllocationIndependentOfPrefix(t *testing.T) {
	m, err := model.New(model.LlamaStyle(testVocab, 1234))
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, MustBackend("scalar"))
	ctx := context.Background()
	for _, n := range []int{256, 1024} {
		doc := strings.TrimSpace(strings.Repeat("harbor archive council garden ", n/4))
		if _, err := c.RegisterSchema(fmt.Sprintf(`<schema name="doc%d"><module name="doc">%s</module></schema>`, n, doc)); err != nil {
			t.Fatal(err)
		}
	}
	// A collection empties the pooled scratch, which the next serve would
	// allocate again; none may land between the counted serves.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	serve := func(n int, baseline bool) {
		if _, err := c.Infer(ctx, Request{
			Prompt:      fmt.Sprintf(`<prompt schema="doc%d"><doc/><user>summarize the document</user></prompt>`, n),
			Baseline:    baseline,
			PrefillOnly: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// allocated returns the bytes f allocates.
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	// AllocsPerRun makes one warm-up call before the counted ones, so the
	// bytes are those of runs+1 serves.
	const runs = 5
	var allocs [2]float64
	var bytes [2]uint64
	for i, n := range []int{256, 1024} {
		bytes[i] = allocated(func() {
			allocs[i] = testing.AllocsPerRun(runs, func() { serve(n, false) })
		}) / (runs + 1)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("cached serve: %v allocations over 256 tokens, %v over 1024; want equal", allocs[0], allocs[1])
	}
	if diff := math.Abs(float64(bytes[1]) - float64(bytes[0])); diff >= 0.02*float64(bytes[0]) {
		t.Errorf("cached serve: %d bytes over 256 tokens, %d over 1024; want within 2%%", bytes[0], bytes[1])
	}
	base256 := allocated(func() { serve(256, true) })
	base1024 := allocated(func() { serve(1024, true) })
	if base1024 < 2*base256 || base256 <= bytes[0] {
		t.Errorf("baseline serve: %d bytes over 256 tokens, %d over 1024 (cached %d); want growth with the prefix",
			base256, base1024, bytes[0])
	}
}
