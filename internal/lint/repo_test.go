package lint

import (
	"slices"
	"strings"
	"testing"
)

// TestRepoCleanUnderDefaultConfig is the in-process version of the CI
// gate: all six analyzers over every package of this module, under the
// curated DefaultConfig, must produce zero unsuppressed diagnostics —
// and every suppression in the tree must carry its reason.
func TestRepoCleanUnderDefaultConfig(t *testing.T) {
	prog := loadRepo(t)
	diags, err := prog.Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Unsuppressed(diags) {
		t.Errorf("unsuppressed: %s", d)
	}
	suppressed := 0
	for _, d := range diags {
		if !d.Suppressed {
			continue
		}
		suppressed++
		if d.Reason == "" {
			t.Errorf("suppression with empty reason: %s", d)
		}
	}
	// The tree carries documented suppressions (deliberate under-lock
	// encodes, internal invariant guards, an existence scan); if this
	// ever drops to zero the analyzers have likely stopped seeing the
	// engine at all.
	if suppressed == 0 {
		t.Error("no suppressed diagnostics found in the repo: analyzers appear to be running against nothing")
	}
}

// TestUnreachedReadsBenchmarkModule: the benchmark module's references
// keep alive what only it links, directly or (Positions) through the
// kvcache.KV interface. Without ReachModules, exactly those are flagged.
func TestUnreachedReadsBenchmarkModule(t *testing.T) {
	prog := *loadRepo(t)
	prog.extern = nil
	cfg := DefaultConfig()
	cfg.ReachModules = nil
	diags, err := prog.Run(cfg, "unreached")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range Unsuppressed(diags) {
		got = append(got, strings.Fields(d.Message)[0])
	}
	slices.Sort(got)
	want := []string{
		"core.Cache.SchedStats", "kvcache.Cache.Positions", "kvcache.Seq.Positions", "kvcache.Seq.ViewLen",
		"model.Config.BytesPerCachedToken", "model.Model.DecodeStepBatch", "tensor.Backend.MatVecT", "tensor.Backend.OutputHead",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged without the benchmark module: %v, want %v", got, want)
	}
}
