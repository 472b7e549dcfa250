package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/tensor"
)

// SaveAll cuts the registry under one short Cache.mu hold and writes the
// snapshot off the lock, producing any states the cut found neither in
// memory nor as a blob of the target directory the way a serve produces
// a pending part: a blob read with retries, else a re-encode. These tests
// pin the write's producers, the cut's moment, and that serving and
// registration continue while a write is parked.

// restoresAs opens the snapshot in dir and fails unless every module
// prompt serves the probe's bits from it.
func restoresAs(t *testing.T, probe *Cache, m *model.Model, dir string) {
	t.Helper()
	restored, err := OpenDir(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allModulePrompts {
		serveBoth(t, probe, restored, p)
	}
}

// TestSaveAllRecoversFailedRead: a snapshot into another directory
// reads the disk tier's blobs back as a serve does. One transient read
// error is retried (one counted retry, no encode) and a corrupt blob is
// re-encoded (never retried); neither fails the snapshot, which restores
// the cold serve's bits.
func TestSaveAllRecoversFailedRead(t *testing.T) {
	for _, tc := range []struct {
		name             string
		err              error
		retries, encodes int
	}{
		{"transient", faultinject.ErrTransient, 1, 0},
		{"corrupt", faultinject.ErrCorrupt, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(11)
			probe, faulty := spillingPair(t, 643, inj)
			before := faulty.Stats()
			inj.Set(FaultPointDiskRead, faultinject.Rule{Err: tc.err, Times: 1})
			dir := t.TempDir()
			if err := faulty.SaveAll(dir); err != nil {
				t.Fatalf("one failed blob read failed the snapshot: %v", err)
			}
			st := faulty.Stats()
			retries, encodes := st.DiskRetries-before.DiskRetries, st.ModulesEncoded-before.ModulesEncoded
			if fired := inj.Fired(FaultPointDiskRead); fired != 1 || retries != tc.retries || encodes != tc.encodes {
				t.Fatalf("fault fired %d times (want 1), %d retries (want %d), %d encodes (want %d)",
					fired, retries, tc.retries, encodes, tc.encodes)
			}
			restoresAs(t, probe, faulty.Model(), dir)
		})
	}
}

// TestSaveAllReusesOwnBlobs: a snapshot into the disk tier's own
// directory reuses the blob the tier indexes for a module, resident or
// not, instead of encoding and hashing its states to find the same file.
// After every module has been served back from disk, the snapshot
// consults the blob writer not once.
func TestSaveAllReusesOwnBlobs(t *testing.T) {
	inj := faultinject.New(13)
	probe, faulty := spillingPair(t, 643, inj)
	for _, p := range allModulePrompts {
		serveBoth(t, probe, faulty, p)
	}
	faulty.mu.Lock()
	reused := 0
	for key, em := range faulty.store.modules {
		if _, ok := faulty.store.disk.index[key]; ok && em.state == stateResident {
			reused++
		}
	}
	dir := faulty.store.disk.dir
	faulty.mu.Unlock()
	if reused == 0 {
		t.Fatal("setup needs a resident module with a blob")
	}
	inj.Set(FaultPointDiskWrite, faultinject.Rule{}) // counts calls, injects nothing
	if err := faulty.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	if n := inj.Calls(FaultPointDiskWrite); n != 0 {
		t.Fatalf("snapshot into the tier's own directory wrote %d blobs, want 0 (%d resident modules have one)", n, reused)
	}
	restoresAs(t, probe, faulty.Model(), dir)
}

// TestOpenDirRejectsDuplicateSchema: a manifest that lists one schema
// twice is a bad snapshot, not a silent replacement of the first listing.
func TestOpenDirRejectsDuplicateSchema(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	dir := t.TempDir()
	if err := c.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var man diskManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man.Schemas = append(man.Schemas, man.Schemas[0])
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(c.Model(), dir); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("a schema listed twice: err = %v, want ErrBadSnapshot", err)
	}
}

// saveParked starts SaveAll into c's own disk directory with its first
// blob write parked for park, and returns once the write is parked; the
// channel delivers SaveAll's result.
func saveParked(t *testing.T, c *Cache, inj *faultinject.Injector, park time.Duration) <-chan error {
	t.Helper()
	inj.Set(FaultPointDiskWrite, faultinject.Rule{Delay: park, Times: 1})
	saved := make(chan error, 1)
	go func() { saved <- c.SaveAll(c.store.disk.dir) }()
	for deadline := time.Now().Add(encodeWait); inj.Fired(FaultPointDiskWrite) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("SaveAll never reached a blob write")
		}
	}
	return saved
}

// beforeSave waits for op's result and fails the test if SaveAll, parked
// in a blob write, returns first: op waited for the cache lock.
func beforeSave(t *testing.T, saved <-chan error, op <-chan error, what string) {
	t.Helper()
	select {
	case err := <-op:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case err := <-saved:
		t.Fatalf("SaveAll returned (%v) before %s did: it waited on the cache lock", err, what)
	}
}

// TestSaveAllOffLock: while SaveAll is parked in a blob write, a serve
// and the registration of another schema both return. The snapshot is
// the registry at the cut, so it holds travel without the new schema.
func TestSaveAllOffLock(t *testing.T) {
	inj := faultinject.New(14)
	c := llamaCache(t, WithDiskTier(t.TempDir(), CodecFP32), WithFaultInjection(inj))
	mustRegister(t, c, travelSchema)
	saved := saveParked(t, c, inj, 2*time.Second)
	served, registered := make(chan error, 1), make(chan error, 1)
	go func() { served <- serveClose(context.Background(), c, allModulePrompts[1]) }()
	go func() {
		_, err := c.RegisterSchema(encodeSchemaB)
		registered <- err
	}()
	beforeSave(t, saved, served, "a serve")
	beforeSave(t, saved, registered, "a registration")
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	restored, err := OpenDir(c.Model(), c.store.disk.dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := restored.SchemaNames(); !slices.Equal(names, []string{"travel"}) {
		t.Fatalf("snapshot holds %v, want the cut's [travel]", names)
	}
	assertNoPins(t, c)
}

// TestSaveAllCutIgnoresLaterReplacement: a replacement of the saved
// schema finishes while SaveAll is parked in a blob write, and the
// snapshot still restores the schema as the cut saw it: the old text,
// serving the old text's cached and baseline bits.
func TestSaveAllCutIgnoresLaterReplacement(t *testing.T) {
	inj := faultinject.New(15)
	c := llamaCache(t, WithDiskTier(t.TempDir(), CodecFP32), WithFaultInjection(inj))
	mustRegister(t, c, travelSchema)
	probe := NewCache(c.Model())
	mustRegister(t, probe, travelSchema)
	changed := strings.Replace(travelSchema, "superb food", "superb fresh food", 1)
	saved := saveParked(t, c, inj, 2*time.Second)
	replaced := make(chan error, 1)
	go func() {
		_, err := c.RegisterSchema(changed)
		replaced <- err
	}()
	beforeSave(t, saved, replaced, "the replacement")
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	if src, _ := c.SchemaSource("travel"); src != changed {
		t.Fatal("the live cache does not serve the replacement")
	}
	restored, err := OpenDir(c.Model(), c.store.disk.dir)
	if err != nil {
		t.Fatal(err)
	}
	if src, _ := restored.SchemaSource("travel"); src != travelSchema {
		t.Fatal("snapshot holds the replacement, not the schema at the cut")
	}
	for _, p := range allModulePrompts {
		serveBoth(t, probe, restored, p)
		want, err := probe.BaselineServe(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.BaselineServe(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(want.Logits, got.Logits) {
			t.Fatalf("%s: restored baseline differs from the old text's", p)
		}
		want.Close()
		got.Close()
	}
}

// TestSaveAllOwnDirOutlivesReplacement: a snapshot into the disk tier's
// own directory shares its blobs with the live index, and a later
// replacement that changes tokyo's text unindexes tokyo's key. The blob
// stays, because the directory's manifest still names it, so the
// snapshot restores with no load error and no encode, serving the old
// text's bits. The next snapshot into the directory names the new text's
// blobs and removes the old tokyo blob, which nothing names any more.
func TestSaveAllOwnDirOutlivesReplacement(t *testing.T) {
	inj := faultinject.New(16)
	probe, faulty := spillingPair(t, 643, inj)
	dir := faulty.store.disk.dir
	if err := faulty.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	faulty.mu.Lock()
	tokyo, onDisk := faulty.store.disk.index["travel/tokyo"]
	faulty.mu.Unlock()
	if !onDisk {
		t.Fatal("setup needs tokyo's blob in the disk index")
	}
	mustRegister(t, faulty, strings.Replace(travelSchema, "superb food", "superb fresh food", 1))
	restored, err := OpenDir(faulty.Model(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allModulePrompts {
		serveBoth(t, probe, restored, p)
	}
	if st := restored.Stats(); st.DiskLoadErrors != 0 || st.ModulesEncoded != 0 {
		t.Fatalf("restored snapshot: %d load errors, %d encodes, want 0 and 0", st.DiskLoadErrors, st.ModulesEncoded)
	}

	if err := faulty.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(faulty.store.disk.blobPath(tokyo.hash)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the old tokyo blob outlived the snapshot that stopped naming it (stat: %v)", err)
	}
	assertBlobsNamed(t, faulty, dir)
}

// assertBlobsNamed fails for each blob file in dir that neither dir's
// manifest nor c's disk index names.
func assertBlobsNamed(t *testing.T, c *Cache, dir string) {
	t.Helper()
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var man diskManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, ms := range man.Schemas {
		for _, mm := range append(ms.Modules, ms.Scaffolds...) {
			named[mm.Hash+".pckv"] = true
		}
	}
	c.mu.Lock()
	for _, e := range c.store.disk.index {
		named[e.hash+".pckv"] = true
	}
	c.mu.Unlock()
	files, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !named[f.Name()] {
			t.Errorf("blob %s is named by neither the manifest nor the index", f.Name())
		}
	}
}

// TestOpenDirLegacyMinedEntries: a snapshot written while caches still
// promoted mined modules lists them in a "mined" section, each with its
// blob. OpenDir restores every declared module and scaffold from such a
// manifest without an encode and restores no mined entry; the next
// SaveAll into the directory removes the mined blobs, which nothing
// reads any more.
func TestOpenDirLegacyMinedEntries(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 613))
	if err != nil {
		t.Fatal(err)
	}
	orig := NewCache(m)
	mustRegister(t, orig, scaffoldSchema)
	want, err := orig.Serve(context.Background(), scaffoldPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	dir := t.TempDir()
	if err := orig.SaveAll(dir); err != nil {
		t.Fatal(err)
	}

	// The legacy entry: a prefix's states in a blob of their own, listed
	// as the older format listed them.
	layout, err := orig.Layout("s")
	if err != nil {
		t.Fatal(err)
	}
	prefix := &EncodedModule{Name: "~mined/0", Schema: "s", Toks: orig.tok.Encode("legacy shared prefix words")}
	for i := range prefix.Toks {
		prefix.Pos = append(prefix.Pos, layout.TotalLen+i)
	}
	kv, err := orig.encodeStates(prefix)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := newDiskTier(dir, CodecFP32).writeBlob(kv, CodecFP32)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man["schemas"].([]any)[0].(map[string]any)["mined"] = []any{map[string]any{
		"name": prefix.Name, "hash": blob.hash, "codec": "fp32", "bytes": blob.bytes, "tokens": blob.tokens,
		"class": "s", "toks": prefix.Toks, "pos": prefix.Pos,
	}}
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	restored, err := OpenDir(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Serve(context.Background(), scaffoldPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	if !sameBits(want.Logits, got.Logits) {
		t.Fatalf("restored serve differs by %v", tensor.MaxAbsDiff(want.Logits, got.Logits))
	}
	if st := restored.Stats(); st.ModulesRestored != 3 || st.ModulesEncoded != 0 {
		t.Fatalf("want the 2 modules and the scaffold restored, none encoded: %+v", st)
	}
	if err := restored.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	assertBlobsNamed(t, restored, dir)
}

// TestSaveAllOwnDirReplacementDuringWrite: the cut of a snapshot into
// the disk tier's own directory reuses tokyo's indexed blob, and a
// replacement that changes tokyo's text unindexes it while the write is
// parked. The blob stays, because the manifest being written names it,
// so the snapshot restores with no load error and no encode.
func TestSaveAllOwnDirReplacementDuringWrite(t *testing.T) {
	inj := faultinject.New(17)
	probe, faulty := spillingPair(t, 643, inj)
	faulty.mu.Lock()
	_, onDisk := faulty.store.disk.index["travel/tokyo"]
	faulty.mu.Unlock()
	if !onDisk {
		t.Fatal("setup needs tokyo's blob in the disk index")
	}
	saved := saveParked(t, faulty, inj, 2*time.Second)
	replaced := make(chan error, 1)
	go func() {
		_, err := faulty.RegisterSchema(strings.Replace(travelSchema, "superb food", "superb fresh food", 1))
		replaced <- err
	}()
	beforeSave(t, saved, replaced, "the replacement")
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	restored, err := OpenDir(faulty.Model(), faulty.store.disk.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allModulePrompts {
		serveBoth(t, probe, restored, p)
	}
	if st := restored.Stats(); st.DiskLoadErrors != 0 || st.ModulesEncoded != 0 {
		t.Fatalf("restored snapshot: %d load errors, %d encodes, want 0 and 0", st.DiskLoadErrors, st.ModulesEncoded)
	}
}

// TestSaveAllAfterCorruptSavedBlob: a restored cache reads a corrupt
// blob its manifest names, counts a load error and re-encodes. The
// corrupt file goes even though the manifest names it, so the next
// snapshot into the directory writes the re-encoded states afresh under
// the same name instead of reusing the corrupt file, and a restart from
// it reads every module cleanly.
func TestSaveAllAfterCorruptSavedBlob(t *testing.T) {
	inj := faultinject.New(18)
	probe, faulty := spillingPair(t, 643, inj)
	dir := faulty.store.disk.dir
	if err := faulty.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenDir(faulty.Model(), dir)
	if err != nil {
		t.Fatal(err)
	}
	restored.mu.Lock()
	tokyo := restored.store.disk.index["travel/tokyo"]
	restored.mu.Unlock()
	path := restored.store.disk.blobPath(tokyo.hash)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2&^3+2] ^= 1 // mantissa bit 16 of a state value
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	serveBoth(t, probe, restored, allModulePrompts[0])
	if st := restored.Stats(); st.DiskLoadErrors != 1 {
		t.Fatalf("corrupt tokyo blob: %d load errors, want 1", st.DiskLoadErrors)
	}
	if err := restored.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDir(faulty.Model(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allModulePrompts {
		serveBoth(t, probe, again, p)
	}
	if st := again.Stats(); st.DiskLoadErrors != 0 || st.ModulesEncoded != 0 {
		t.Fatalf("snapshot after the corrupt read: %d load errors, %d encodes, want 0 and 0", st.DiskLoadErrors, st.ModulesEncoded)
	}
}
