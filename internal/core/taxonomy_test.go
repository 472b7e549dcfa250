package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

// These tests lock in the error-taxonomy wrapping that rode along with
// pclint's errtaxonomy analyzer: engine failures must be routable with
// errors.Is (the HTTP layer maps them to statuses that way), never by
// string matching.

// TestSnapshotGarbageIsBadSnapshot: a cache directory whose manifest is
// not JSON is a bad snapshot, not an internal error.
func TestSnapshotGarbageIsBadSnapshot(t *testing.T) {
	c := llamaCache(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("garbage bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDir(c.Model(), dir)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage snapshot: got %v, want errors.Is ErrBadSnapshot", err)
	}
}

// TestSnapshotAlteredSchemaIsBadSnapshot: a manifest whose schema source
// no longer matches its blobs (a module's text changed length) is
// refused with ErrBadSnapshot rather than served from stale states.
func TestSnapshotAlteredSchemaIsBadSnapshot(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 401)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewCache(m)
	mustRegister(t, orig, travelSchema)
	dir := t.TempDir()
	if err := orig.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	editManifest(t, dir, func(pml string) string {
		return strings.Replace(pml, "superb food", "superb food and also trains", 1)
	})
	_, err = OpenDir(m, dir)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("stale snapshot: got %v, want errors.Is ErrBadSnapshot", err)
	}
}

// TestResolveImportsDeterministicError locks in the maporder fix in
// resolveImports: with two bad arguments on one import, the reported
// error must name the alphabetically-first key on every run, not
// whichever one map iteration surfaced.
func TestResolveImportsDeterministicError(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	prompt := `<prompt schema="travel"><trip-plan zebra="x" alpha="y"/>Go.</prompt>`
	var first string
	for i := 0; i < 30; i++ {
		_, err := c.Serve(context.Background(), prompt, ServeOpts{})
		if !errors.Is(err, ErrBadPrompt) {
			t.Fatalf("got %v, want errors.Is ErrBadPrompt", err)
		}
		if !strings.Contains(err.Error(), `"alpha"`) {
			t.Fatalf("error should name the first bad key %q, got: %v", "alpha", err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("error changed between runs:\n  %s\n  %s", first, err)
		}
	}
}
