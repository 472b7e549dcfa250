package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/tensor"
)

// TestWarmRestartFP32 is the restart acceptance path: register, serve,
// SaveAll, construct a fresh Cache via OpenDir, and the first serve is a
// cache hit — no module encoding at all — with bit-identical logits under
// the fp32 codec.
func TestWarmRestartFP32(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 601)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewCache(m)
	mustRegister(t, orig, travelSchema)
	prompt := `<prompt schema="travel"><trip-plan duration="five days"/><tokyo/>Plan the trip.</prompt>`
	want, err := orig.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()

	dir := t.TempDir()
	if err := orig.SaveAll(dir); err != nil {
		t.Fatal(err)
	}

	restored, err := OpenDir(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := restored.Stats()
	if st.ModulesRestored != 4 {
		t.Fatalf("restored = %d, want 4", st.ModulesRestored)
	}
	if st.ModulesEncoded != 0 || st.TokensEncoded != 0 {
		t.Fatalf("OpenDir must not encode: %+v", st)
	}
	got, err := restored.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Fatalf("fp32 warm-restart serve differs by %v", d)
	}
	st = restored.Stats()
	if st.ModulesEncoded != 0 {
		t.Fatalf("first serve after restart re-encoded: %+v", st)
	}
	if st.DiskHits == 0 {
		t.Fatal("first serve should read modules back from disk")
	}
	if got.CachedTokens != want.CachedTokens || got.NewTokens != want.NewTokens {
		t.Fatalf("reuse accounting differs: got %d/%d want %d/%d",
			got.CachedTokens, got.NewTokens, want.CachedTokens, want.NewTokens)
	}
}

// TestWarmRestartQuantizedCodecs: int8 and int4 snapshots restore with
// logits inside the codec's reconstruction bound, checked as closeness
// to the full-precision serve.
func TestWarmRestartQuantizedCodecs(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 607)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewCache(m)
	mustRegister(t, orig, travelSchema)
	prompt := `<prompt schema="travel"><miami/>Surfing conditions?</prompt>`
	want, err := orig.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()

	for _, codec := range []Codec{CodecInt8, CodecInt4} {
		t.Run(codec.String(), func(t *testing.T) {
			dir := t.TempDir()
			saver := NewCache(m, WithDiskTier(dir, codec))
			mustRegister(t, saver, travelSchema)
			if err := saver.SaveAll(dir); err != nil {
				t.Fatal(err)
			}
			restored, err := OpenDir(m, dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Serve(context.Background(), prompt, ServeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			got.Close()
			if restored.Stats().ModulesEncoded != 0 {
				t.Fatal("quantized restore should not encode")
			}
			cos := tensor.CosineSimilarity(want.Logits, got.Logits)
			min := 0.99
			if codec == CodecInt4 {
				min = 0.95 // coarser grid, looser bound
			}
			if cos < min {
				t.Fatalf("%s warm-restart cosine %.4f, want >= %.2f", codec, cos, min)
			}
		})
	}
}

// scaffoldSchema's two modules are covered by one scaffold and the
// schema holds nothing else, so scaffoldPrompt is served from the
// scaffold alone and matches the full-attention baseline bit for bit.
const scaffoldSchema = `<schema name="s">
	  <module name="a">first clause words here</module>
	  <module name="b">second clause words there</module>
	  <scaffold name="ab" modules="a b"/>
	</schema>`

const scaffoldPrompt = `<prompt schema="s"><a/><b/>Relate them.</prompt>`

// TestWarmRestartScaffold: scaffold states persist too (always fp32), so
// a restarted cache applies the scaffold override without any encoding
// and serves the original's bits; the scaffold reads its blob back on
// first use, like any module. The manifest bytes are pinned per seed: a
// snapshot written while scaffolds still restored eagerly into the pool
// has the same sha256 — same blobs, same lists — so it opens and serves
// the same way.
func TestWarmRestartScaffold(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		manifest string
	}{
		{613, "e8c150e07b5bafda4a8be266d69e5a054915a4653775d6b2dfa9d5d1750d5dc8"},
		{331, "f140267d12d7b864a7b79c78aed790229a303b8342a43f0abdc4ecaadb4fd97d"},
	} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			m, err := model.New(model.LlamaStyle(coreVocab, tc.seed))
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
			data, err := os.ReadFile(manifestPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.manifest {
				t.Fatalf("manifest.json sha256 = %x, want %s; the manifest:\n%s", sum, tc.manifest, data)
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
			if len(got.Scaffolds) != 1 {
				t.Fatalf("scaffold not applied after restart: %v", got.Scaffolds)
			}
			if !sameBits(want.Logits, got.Logits) {
				t.Fatalf("scaffolded warm-restart serve differs by %v", tensor.MaxAbsDiff(want.Logits, got.Logits))
			}
			if st := restored.Stats(); st.ModulesRestored != 3 || st.ModulesEncoded != 0 || st.DiskHits != 1 {
				t.Fatalf("want 3 modules restored, none encoded, the scaffold read from disk: %+v", st)
			}
		})
	}
}

// TestEvictionSpillsToDisk is the eviction acceptance path: with no host
// tier and a device pool too small for the schema, dropped modules land
// on disk instead, and a later serve promotes them back — no ErrCapacity,
// no re-encode — bit-identically under the fp32 codec.
func TestEvictionSpillsToDisk(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 617)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	dir := t.TempDir()
	spilling := NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithDiskTier(dir, CodecFP32),
	)
	mustRegister(t, spilling, travelSchema)
	st := spilling.Stats()
	if st.ModulesSpilled == 0 {
		t.Fatalf("expected disk spills, got %+v", st)
	}
	if spilling.Snapshot().Tiers.DiskBytes == 0 || spilling.Snapshot().Tiers.DiskModules == 0 {
		t.Fatal("disk tier occupancy should be nonzero after spills")
	}

	// Serving cycles every module through the disk tier without a single
	// re-encode, matching the unconstrained cache exactly.
	prompts := []string{
		`<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`,
		`<prompt schema="travel"><miami/>Surf?</prompt>`,
		`<prompt schema="travel"><trip-plan duration="two days"/><miami/>Plan.</prompt>`,
	}
	encodes := spilling.Stats().ModulesEncoded
	for _, p := range prompts {
		want, err := probe.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := spilling.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
			t.Fatalf("disk-tier serve differs by %v", d)
		}
		want.Close()
		got.Close()
	}
	st = spilling.Stats()
	if st.ModulesEncoded != encodes {
		t.Fatalf("disk tier re-encoded: %d -> %d", encodes, st.ModulesEncoded)
	}
	if st.DiskHits == 0 {
		t.Fatal("expected disk hits on reuse")
	}
	if st.ModulesReloaded != 0 {
		t.Fatalf("spilled modules must not reload via encode, got %d", st.ModulesReloaded)
	}
	assertTierGauges(t, spilling)
}

// TestDiskSpillBelowHostTier: with all three tiers, the host pool fills
// first, the overflow spills to disk, and everything still serves.
func TestDiskSpillBelowHostTier(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 619)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	dir := t.TempDir()
	tiered := NewCache(m,
		WithDeviceCapacity(need/3+1),
		WithHostTier(need/4),
		WithDiskTier(dir, CodecFP32),
	)
	mustRegister(t, tiered, travelSchema)
	st := tiered.Stats()
	if st.ModulesDemoted == 0 || st.ModulesSpilled == 0 {
		t.Fatalf("expected both demotions and spills, got %+v", st)
	}
	res, err := tiered.Serve(context.Background(), `<prompt schema="travel"><tokyo/>Plan.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	want, err := probe.Serve(context.Background(), `<prompt schema="travel"><tokyo/>Plan.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	if d := tensor.MaxAbsDiff(res.Logits, want.Logits); d != 0 {
		t.Fatalf("three-tier serve differs by %v", d)
	}
}

// TestCorruptDiskBlobFallsBack: an unreadable blob degrades to a
// transparent re-encode — the serve succeeds, the corruption is counted.
func TestCorruptDiskBlobFallsBack(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 631)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	dir := t.TempDir()
	spilling := NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithDiskTier(dir, CodecFP32),
	)
	mustRegister(t, spilling, travelSchema)
	if spilling.Stats().ModulesSpilled == 0 {
		t.Fatal("setup needs spills")
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*.pckv"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no blobs on disk: %v", err)
	}
	for _, b := range blobs {
		if err := os.WriteFile(b, []byte("corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prompt := `<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`
	got, err := spilling.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	want, err := probe.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Fatalf("fallback serve differs by %v", d)
	}
	st := spilling.Stats()
	if st.DiskLoadErrors == 0 {
		t.Fatalf("corruption should be counted, got %+v", st)
	}
}

// TestFlippedBlobBitFallsBack: a blob that still decodes but hashes to
// another name than the one it is stored under — one payload bit flipped
// — is corrupt: the serve counts a load error and re-encodes, bit for bit
// the cold serve, instead of splicing the flipped states.
func TestFlippedBlobBitFallsBack(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 631))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	dir := t.TempDir()
	spilling := NewCache(m,
		WithDeviceCapacity(probe.Snapshot().PoolBytes/2+1),
		WithDiskTier(dir, CodecFP32),
	)
	mustRegister(t, spilling, travelSchema)
	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*.pckv"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no blobs on disk: %v", err)
	}
	for _, b := range blobs {
		data, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2&^3+2] ^= 1 // mantissa bit 16 of a state value
		if err := os.WriteFile(b, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prompt := `<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`
	want, err := probe.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	got, err := spilling.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	if st := spilling.Stats(); st.DiskLoadErrors < 1 {
		t.Errorf("flipped blobs counted no load error: %+v", st)
	}
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Errorf("serve over flipped blobs differs from a cold serve by %v", d)
	}
}

// TestSameStreamReplacementKeepsBlobs: re-registering a schema with the
// same text hands each module's blob to its successor — the same key over
// the same stream has the same states — so no blob file disappears and
// the successor's eviction writes nothing; its serve reads the carried
// blob back bit for bit.
func TestSameStreamReplacementKeepsBlobs(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 633))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	prompt := `<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`
	want, err := probe.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()

	inj := faultinject.New(3)
	dir := t.TempDir()
	c := NewCache(m, WithDiskTier(dir, CodecFP32), WithFaultInjection(inj))
	mustRegister(t, c, travelSchema)
	keys := []string{"travel/trip-plan", "travel/tokyo", "travel/miami"}
	c.mu.Lock()
	for _, key := range keys {
		evictKeyLocked(t, &c.store, key) // every module spills
	}
	c.mu.Unlock()
	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*.pckv"))
	if err != nil || len(blobs) != len(keys) {
		t.Fatalf("want %d blobs on disk, have %v (%v)", len(keys), blobs, err)
	}
	blobsKept := func(when string) {
		t.Helper()
		for _, b := range blobs {
			if _, err := os.Stat(b); err != nil {
				t.Fatalf("%s: blob %s is gone: %v", when, filepath.Base(b), err)
			}
		}
	}
	inj.Set(FaultPointDiskWrite, faultinject.Rule{}) // counts writes, fails none

	mustRegister(t, c, travelSchema)
	blobsKept("after the replacement")
	c.mu.Lock()
	evictKeyLocked(t, &c.store, "travel/tokyo")
	state := c.store.modules["travel/tokyo"].state
	c.mu.Unlock()
	blobsKept("after the eviction")
	if n := inj.Calls(FaultPointDiskWrite); n != 0 || state != stateDisk {
		t.Fatalf("the successor's eviction wrote %d blobs and left tokyo in state %d, want 0 and disk", n, state)
	}
	before := c.Stats()
	got, err := c.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Errorf("serve over the carried blob differs from a cold serve by %v", d)
	}
	if st := c.Stats(); st.DiskHits != before.DiskHits+1 || st.DiskLoadErrors != 0 || st.ModulesReloaded != 0 {
		t.Errorf("want one disk hit, no load error, no re-encode: %+v", st)
	}
	assertTierGauges(t, c)
}

// TestOpenDirRejectsDrift: a snapshot does not restore into a different
// world — wrong model shape or missing manifest must fail cleanly.
func TestOpenDirRejectsDrift(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 641)
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
	if !HasSnapshot(dir) {
		t.Fatal("HasSnapshot should see the manifest")
	}

	other := model.LlamaStyleLarge(coreVocab, 641)
	m2, err := model.New(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(m2, dir); err == nil {
		t.Fatal("mismatched model shape should fail")
	}

	empty := t.TempDir()
	if HasSnapshot(empty) {
		t.Fatal("empty dir has no snapshot")
	}
	if _, err := OpenDir(m, empty); err == nil {
		t.Fatal("missing manifest should fail")
	}

	// A corrupted manifest is an error, not a panic.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(m, dir); err == nil {
		t.Fatal("corrupt manifest should fail")
	}
}

// TestOpenDirRejectsPathHash: a manifest's blob hash names a file under
// blobs/, so a hash that is not a sha256 (here one with "../" segments)
// is ErrBadSnapshot, in a declared module's entry and in an older
// manifest's "mined" section alike. Trusted, it would point a later
// corrupt-blob cleanup at a file outside the directory.
func TestOpenDirRejectsPathHash(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 647))
	if err != nil {
		t.Fatal(err)
	}
	orig := NewCache(m)
	mustRegister(t, orig, travelSchema)
	for _, section := range []string{"modules", "mined"} {
		t.Run(section, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "a", "b")
			if err := orig.SaveAll(dir); err != nil {
				t.Fatal(err)
			}
			victim := filepath.Join(root, "a", "victim.pckv")
			if err := os.WriteFile(victim, []byte("not a blob"), 0o644); err != nil {
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
			schema := man["schemas"].([]any)[0].(map[string]any)
			bad := map[string]any{"name": "tokyo", "hash": "../../victim", "codec": "fp32", "bytes": 10, "tokens": 1}
			if section == "mined" {
				schema["mined"] = []any{bad}
			} else {
				for _, mod := range schema["modules"].([]any) {
					if mod := mod.(map[string]any); mod["name"] == "tokyo" {
						mod["hash"] = bad["hash"]
					}
				}
			}
			if data, err = json.Marshal(man); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
				t.Fatal(err)
			}

			restored, err := OpenDir(m, dir)
			if err == nil {
				// Serving tokyo reads the named file, finds it corrupt and
				// removes it; an own-directory SaveAll removes the rest.
				res, serr := restored.Serve(context.Background(),
					`<prompt schema="travel"><trip-plan duration="five days"/><tokyo/>Plan the trip.</prompt>`, ServeOpts{})
				if serr == nil {
					res.Close()
				}
				_ = restored.SaveAll(dir)
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("OpenDir = %v, want ErrBadSnapshot", err)
			}
			if _, err := os.Stat(victim); err != nil {
				t.Errorf("file outside the snapshot: %v", err)
			}
		})
	}
}

// editManifest rewrites every schema source recorded in dir's manifest.
func editManifest(t *testing.T, dir string, edit func(pml string) string) {
	t.Helper()
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var man diskManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	for i := range man.Schemas {
		man.Schemas[i].PML = edit(man.Schemas[i].PML)
	}
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRoundTrip: a saved directory restores every module without
// encoding, before any serve, and the restored cache serves bit-identically.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 301)
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

	restored, err := OpenDir(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats().ModulesRestored != 4 {
		t.Fatalf("restored = %d", restored.Stats().ModulesRestored)
	}
	// Restoring skips encoding entirely (scaffolds aside; travel has none).
	if restored.Stats().ModulesEncoded != 0 {
		t.Fatalf("encoded = %d, want 0 on restore", restored.Stats().ModulesEncoded)
	}

	prompt := `<prompt schema="travel"><trip-plan duration="six days"/><tokyo/>Plan it.</prompt>`
	want, err := orig.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	got, err := restored.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Fatalf("snapshot-restored serve differs by %v", d)
	}
}

// TestSnapshotSchemaMismatch: a manifest whose schema source names a
// module the blobs were not encoded for is refused, not served.
func TestSnapshotSchemaMismatch(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 311)
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
		return strings.Replace(pml, `name="miami"`, `name="boston"`, 1)
	})
	if _, err := OpenDir(m, dir); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("renamed module: got %v, want errors.Is ErrBadSnapshot", err)
	}
}

// TestSnapshotCorruptHeader: module blobs with a corrupt header do not
// fail the restore; the first serve of each falls back to a re-encode
// with identical logits, and the corruption is counted.
func TestSnapshotCorruptHeader(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 313)
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
	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*.pckv"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no blobs on disk: %v", err)
	}
	for _, b := range blobs {
		f, err := os.OpenFile(b, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("XXXX"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	restored, err := OpenDir(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	prompt := `<prompt schema="travel"><trip-plan duration="six days"/><tokyo/>Plan it.</prompt>`
	want, err := orig.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	got, err := restored.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Fatalf("fallback serve differs by %v", d)
	}
	if st := restored.Stats(); st.DiskLoadErrors == 0 || st.ModulesEncoded == 0 {
		t.Fatalf("corrupt blobs should be counted and re-encoded: %+v", st)
	}
}

// TestSaveAllReRegisterInvalidatesBlobs: re-registering a schema drops
// its disk entries so a stale blob can never serve a new registration.
func TestSaveAllReRegisterInvalidatesBlobs(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 643)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	dir := t.TempDir()
	c := NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithDiskTier(dir, CodecFP32),
	)
	mustRegister(t, c, travelSchema)
	if c.Snapshot().Tiers.DiskModules == 0 {
		t.Fatal("setup needs spilled modules")
	}
	altered := strings.Replace(travelSchema, "superb food", "superb food and trains", 1)
	mustRegister(t, c, altered)
	// The old registration's entries are gone; whatever spilled since
	// belongs to the new one.
	prompt := `<prompt schema="travel"><tokyo/>Plan.</prompt>`
	fresh := NewCache(m)
	mustRegister(t, fresh, altered)
	want, err := fresh.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	got, err := c.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Fatalf("re-registered disk-tier serve differs by %v", d)
	}
}

// TestDiskTierConcurrentServes: many goroutines serving over a pool that
// fits only part of the working set, so modules cycle device→disk→device
// while blob reads happen off-lock. Run under -race; logits must match
// the unconstrained cache on every serve.
func TestDiskTierConcurrentServes(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 653)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	dir := t.TempDir()
	c := NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithDiskTier(dir, CodecFP32),
	)
	mustRegister(t, c, travelSchema)

	prompts := []string{
		`<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`,
		`<prompt schema="travel"><miami/>Surf?</prompt>`,
		`<prompt schema="travel"><trip-plan duration="two days"/><miami/>Plan.</prompt>`,
		`<prompt schema="travel"><tokyo/>Eat.</prompt>`,
	}
	want := make([]*ServeResult, len(prompts))
	for i, p := range prompts {
		w, err := probe.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		want[i] = w
	}

	const workers = 8
	const iters = 6
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				idx := (w + i) % len(prompts)
				res, err := c.Serve(context.Background(), prompts[idx], ServeOpts{})
				if err != nil {
					errc <- err
					return
				}
				d := tensor.MaxAbsDiff(res.Logits, want[idx].Logits)
				res.Close()
				if d != 0 {
					errc <- fmt.Errorf("worker %d prompt %d differs by %v", w, idx, d)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.ModulesSpilled == 0 || st.DiskHits == 0 {
		t.Fatalf("hammer never exercised the disk tier: %+v", st)
	}
	assertTierGauges(t, c)
}

// TestFailedOpenDirPreservesSnapshot: OpenDir against a model whose
// tokenizer produces different token counts fails — and must leave the
// snapshot on disk intact, so the right configuration can still open it.
func TestFailedOpenDirPreservesSnapshot(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 659)
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
	blobs, _ := filepath.Glob(filepath.Join(dir, "blobs", "*.pckv"))
	if len(blobs) == 0 {
		t.Fatal("snapshot wrote no blobs")
	}

	// Drift one module's recorded token count: the restore validates it
	// against the re-compiled layout and fails partway through.
	manPath := filepath.Join(dir, "manifest.json")
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(string(man), `"tokens": `, `"tokens": 1`, 1)
	if drifted == string(man) {
		t.Fatal("manifest has no tokens field to drift")
	}
	if err := os.WriteFile(manPath, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(m, dir); err == nil {
		t.Fatal("drifted token count should fail the restore")
	}
	after, _ := filepath.Glob(filepath.Join(dir, "blobs", "*.pckv"))
	if len(after) != len(blobs) {
		t.Fatalf("failed restore deleted blobs: %d -> %d", len(blobs), len(after))
	}
	// With the original manifest back, the snapshot still opens: the
	// failed attempt destroyed nothing.
	if err := os.WriteFile(manPath, man, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenDir(m, dir)
	if err != nil {
		t.Fatalf("snapshot no longer opens: %v", err)
	}
	res, err := restored.Serve(context.Background(), `<prompt schema="travel"><miami/>Surf?</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
}

// TestOpenDirHonorsExplicitCodec: an explicit WithDiskTier on the same
// dir keeps its codec across a warm restart (the -cache-codec flag must
// win over the snapshot's recorded codec); without one, the manifest's
// codec is adopted.
func TestOpenDirHonorsExplicitCodec(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 661)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	orig := NewCache(m, WithDiskTier(dir, CodecInt8))
	mustRegister(t, orig, travelSchema)
	if err := orig.SaveAll(dir); err != nil {
		t.Fatal(err)
	}

	flagged, err := OpenDir(m, dir, WithDiskTier(dir, CodecFP32))
	if err != nil {
		t.Fatal(err)
	}
	if flagged.store.disk.codec != CodecFP32 {
		t.Fatalf("explicit codec lost: %v", flagged.store.disk.codec)
	}
	if flagged.Snapshot().Tiers.DiskModules == 0 {
		t.Fatal("explicit tier still restores the snapshot index")
	}
	defaulted, err := OpenDir(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	if defaulted.store.disk.codec != CodecInt8 {
		t.Fatalf("manifest codec not adopted: %v", defaulted.store.disk.codec)
	}
}

// TestMissingDiskBlobFallsBack: a deleted blob file re-encodes
// transparently, invalidates the stale index entry, and a later eviction
// spills fresh — the tier self-heals.
func TestMissingDiskBlobFallsBack(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 673)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	need := probe.Snapshot().PoolBytes

	dir := t.TempDir()
	c := NewCache(m,
		WithDeviceCapacity(need/2+1),
		WithDiskTier(dir, CodecFP32),
	)
	mustRegister(t, c, travelSchema)
	if c.Stats().ModulesSpilled == 0 {
		t.Fatal("setup needs spills")
	}
	if err := os.RemoveAll(filepath.Join(dir, "blobs")); err != nil {
		t.Fatal(err)
	}
	prompt := `<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`
	got, err := c.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	want, err := probe.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d != 0 {
		t.Fatalf("fallback serve differs by %v", d)
	}
	if c.Stats().DiskLoadErrors == 0 {
		t.Fatal("missing blobs should be counted")
	}
	// Cycling the other modules back in evicts the re-encoded ones:
	// with the stale entries invalidated, they spill fresh and the new
	// blobs read back fine.
	for _, p := range []string{
		`<prompt schema="travel"><miami/>Surf?</prompt>`,
		prompt,
	} {
		res, err := c.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	blobs, _ := filepath.Glob(filepath.Join(dir, "blobs", "*.pckv"))
	if len(blobs) == 0 {
		t.Fatal("re-spill after invalidation wrote no fresh blobs")
	}
}

// TestSnapshotManifestGolden pins the snapshot format byte for byte: the
// sha256 of manifest.json after SaveAll of the travel schema, under
// fp32. Blob hashes are sha256 over deterministic
// bytes, so the pin catches a change to the manifest's shape and a
// change to any module's state bits alike. A deliberate format change
// bumps manifestVersion and replaces the constant.
func TestSnapshotManifestGolden(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(m)
	mustRegister(t, c, travelSchema)
	dir := t.TempDir()
	if err := c.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	const want = "c9f88cc997130c09b9557a5bdba3a3d21d9cdd64b1bcdecf41f899be15dad574"
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != want {
		t.Fatalf("manifest.json sha256 = %x, want %s; the manifest:\n%s", sum, want, got)
	}
}
