package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/quant"
)

// The disk tier is the durable third level of the storage hierarchy
// (device HBM → host DRAM → disk): encoded prompt modules that would
// otherwise be dropped on eviction spill to content-addressed files and
// read back on the next serve instead of re-encoding. The blob is the
// engine's one quantization point: states are encoded per the tier's
// codec on the way out and decoded to fp32 on the way back in, so memory
// only ever holds fp32 states, and under CodecFP32 (and for scaffolds
// under any codec) a module serves the same bits whichever tier it came
// through. SaveAll/OpenDir extend the same blob store into
// a full warm-restart snapshot: every registered schema's layout and
// module states persist across process restarts, so a restarted server
// answers its first cached request without paying the §3.3 encoding cost
// again.

// Codec selects the disk tier's storage precision; it is an alias of the
// quant codec so promptcache can re-export it without leaking internals.
type Codec = quant.Codec

// Re-exported codec points: the bit-exact fp32 passthrough, and int8/int4
// for the §6 compression trade-off (smaller blobs, bounded error).
const (
	CodecFP32 = quant.CodecFP32
	CodecInt8 = quant.CodecInt8
	CodecInt4 = quant.CodecInt4
)

// ParseCodec maps a codec name ("fp32", "int8", "int4") to its Codec.
func ParseCodec(s string) (Codec, error) { return quant.ParseCodec(s) }

// diskEntry locates one module's durable blob.
type diskEntry struct {
	hash   string // content address (sha256 of the encoded payload)
	codec  Codec
	bytes  int64 // encoded blob size
	tokens int   // cached tokens in the blob, for cheap validation
}

// diskTier is the spill store: a blob directory plus the key→blob index.
// The index and its byte total are the tier store's, guarded by
// Cache.mu; blob files are immutable once written (temp+rename), so
// reads need no lock.
type diskTier struct {
	dir   string
	codec Codec
	index map[string]diskEntry
	// bytes is the index's blob bytes, the disk tier's gauge.
	bytes int64
	// saved holds the blob hashes the directory's manifest names, set by
	// OpenDir and by a SaveAll into dir: unindex leaves those files,
	// since a restart reads them, and the next SaveAll into dir removes
	// those that neither its manifest nor the index still names.
	saved map[string]bool
	// inject, when non-nil, is consulted before every blob read and
	// write (WithFaultInjection); nil costs one pointer check.
	inject *faultinject.Injector
}

// Fault-injection point names the disk tier plants on its blob IO.
const (
	// FaultPointDiskRead fires before each blob read: an ErrCorrupt
	// injection classifies as blob corruption (delete + re-encode), any
	// other error as transient IO (kept for retry), and a delay-only
	// rule models slow disk.
	FaultPointDiskRead = "disktier.read"
	// FaultPointDiskWrite fires before each blob write: an injected
	// error (ErrNoSpace for ENOSPC) fails the spill, which eviction
	// degrades to a plain drop.
	FaultPointDiskWrite = "disktier.write"
)

func newDiskTier(dir string, codec Codec) *diskTier {
	return &diskTier{
		dir:   dir,
		codec: codec,
		index: make(map[string]diskEntry),
		saved: make(map[string]bool),
	}
}

func (d *diskTier) blobPath(hash string) string {
	return filepath.Join(d.dir, "blobs", hash+".pckv")
}

// writeBlob encodes kv under codec and stores it content-addressed,
// returning the entry. Writing is idempotent: an existing blob with the
// same hash is reused, so re-spilling unchanged states costs a hash, not
// a write. Requires no lock (pure file IO on immutable content).
func (d *diskTier) writeBlob(kv *kvcache.Cache, codec Codec) (diskEntry, error) {
	if err := d.inject.Fire(FaultPointDiskWrite); err != nil {
		return diskEntry{}, err
	}
	var buf bytes.Buffer
	if _, err := quant.EncodeKV(&buf, kv, codec); err != nil {
		return diskEntry{}, fmt.Errorf("core: encoding spill: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	entry := diskEntry{
		hash:   hex.EncodeToString(sum[:]),
		codec:  codec,
		bytes:  int64(buf.Len()),
		tokens: kv.Len(),
	}
	path := d.blobPath(entry.hash)
	if _, err := os.Stat(path); err == nil {
		return entry, nil // identical content already durable
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return diskEntry{}, err
	}
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return diskEntry{}, err
	}
	return entry, nil
}

// readBlob reads and decodes an entry's blob, hashing it on the way: the
// blob's sha256 is its name, so content that decodes but hashes to
// another name is as corrupt as content that does not decode. Requires
// no lock. Decode failures and hash mismatches (the file exists but its
// content is bad) wrap errCorruptBlob; open errors pass through as plain
// IO errors.
func (d *diskTier) readBlob(entry diskEntry) (*kvcache.Cache, error) {
	if err := d.inject.Fire(FaultPointDiskRead); err != nil {
		if errors.Is(err, faultinject.ErrCorrupt) {
			// Injected corruption classifies exactly like a real decode
			// failure: invalidate the blob, never retry it.
			return nil, fmt.Errorf("%v: %w", err, errCorruptBlob)
		}
		return nil, err // transient: the durable file may be fine
	}
	f, err := os.Open(d.blobPath(entry.hash))
	if err != nil {
		if os.IsNotExist(err) {
			// The blob is gone, not momentarily unreachable: nothing to
			// retry, so classify with the corruption class and let the
			// entry be invalidated (a later eviction re-spills fresh).
			return nil, fmt.Errorf("%v: %w", err, errCorruptBlob)
		}
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	r := io.TeeReader(f, h)
	kv, _, err := quant.DecodeKV(r)
	if err == nil {
		_, err = io.Copy(io.Discard, r) // the hash covers the whole file
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, errCorruptBlob)
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != entry.hash {
		return nil, fmt.Errorf("core: blob %s hashes to %s: %w", entry.hash, sum, errCorruptBlob)
	}
	return kv, nil
}

// diskReadAttempts bounds readBlobRetry: one read plus up to two
// retries covers the transient-blip shape (EIO, a flaky mount) without
// stalling a serve behind a persistently broken disk.
const diskReadAttempts = 3

// readBlobRetry is readBlob with bounded retries on transient errors:
// exponential backoff (1ms, 2ms, ...) with uniform jitter between
// attempts, never retrying proven corruption (the blob is bad, not
// busy). It returns the retry count so the caller can account recovered
// blips (Stats.DiskRetries). Off-lock only — it sleeps.
func (d *diskTier) readBlobRetry(entry diskEntry) (kv *kvcache.Cache, retries int, err error) {
	backoff := time.Millisecond
	for attempt := 0; attempt < diskReadAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff + time.Duration(rand.Int64N(int64(backoff))))
			backoff *= 2
			retries++
		}
		kv, err = d.readBlob(entry)
		if err == nil || errors.Is(err, errCorruptBlob) {
			return kv, retries, err
		}
	}
	return nil, retries, err
}

// errCorruptBlob marks a blob whose *content* is proven bad — a failed
// decode or a validation mismatch — as opposed to a transient IO error
// (open failure, EIO) where the durable file may be perfectly fine.
// Only proven corruption justifies deleting durable data.
var errCorruptBlob = errors.New("corrupt blob")

// checkBlob is the one validation a decoded blob passes before it
// stands in for states: the model's shape and the expected row count.
// A mismatch is proven corruption (errCorruptBlob). It reads only
// immutable fields, so it needs no lock.
func (c *Cache) checkBlob(key string, kv *kvcache.Cache, rows int) error {
	if kv.NLayers != c.m.Cfg.NLayers || kv.KVDim != c.m.Cfg.KVDim() || kv.Len() != rows {
		return fmt.Errorf("core: disk blob %s shaped (%d,%d) with %d tokens, want (%d,%d) with %d: %w",
			key, kv.NLayers, kv.KVDim, kv.Len(), c.m.Cfg.NLayers, c.m.Cfg.KVDim(), rows, errCorruptBlob)
	}
	return nil
}

// --- Warm-restart persistence (SaveAll / OpenDir) ---

const manifestVersion = 1

// diskManifest is the restart snapshot's root document: enough to
// re-register every schema (PML source) and locate every module's states
// — scaffolds included — in the blob store without re-encoding anything.
type diskManifest struct {
	Version int              `json:"version"`
	Codec   string           `json:"codec"`
	NLayers int              `json:"n_layers"`
	KVDim   int              `json:"kv_dim"`
	Schemas []manifestSchema `json:"schemas"`
}

type manifestSchema struct {
	Name      string           `json:"name"`
	PML       string           `json:"pml"`
	Modules   []manifestModule `json:"modules"` // in layout order
	Scaffolds []manifestModule `json:"scaffolds,omitempty"`
	// Mined is read from older snapshots only, which listed modules a
	// traffic observer promoted. They are not restored; OpenDir hands
	// their blobs to the disk tier's saved set, so the next SaveAll into
	// the directory removes them.
	Mined []manifestModule `json:"mined,omitempty"`
}

type manifestModule struct {
	Name   string `json:"name"`
	Hash   string `json:"hash"`
	Codec  string `json:"codec"`
	Bytes  int64  `json:"bytes"`
	Tokens int    `json:"tokens"`
}

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }
func vocabPath(dir string) string    { return filepath.Join(dir, "vocab.json") }

// HasSnapshot reports whether dir holds a SaveAll snapshot that OpenDir
// could restore.
func HasSnapshot(dir string) bool {
	_, err := os.Stat(manifestPath(dir))
	return err == nil
}

// SaveAll persists every registered schema — its source and the states
// of all its modules and scaffolds — into dir as a warm-restart
// snapshot, with the tokenizer's learned vocabulary.
// Declared module blobs take the disk tier's codec (CodecFP32 without
// one), the rest fp32; modules spilled into dir reuse their blobs.
// Cache.mu is held only to cut the registry (cutLocked) and to count what
// the write did: the write runs off the lock (writeSnapshot), so serving
// and registration continue, and the snapshot is the registry at the cut.
// Snapshots run one at a time (saveMu), so the manifest a snapshot into
// the disk tier's own directory leaves is the one whose blobs the tier
// keeps (tierStore.resave).
func (c *Cache) SaveAll(dir string) error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	c.mu.Lock()
	cut, err := c.cutLocked(dir)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	named, err := c.writeSnapshot(cut)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapshotDoneLocked(cut, named, err)
	return err
}

// snapshotDoneLocked counts what a cut's write did and, when it wrote
// the disk tier's own directory without error, hands the tier the blobs
// its manifest names (named, from writeSnapshot).
func (c *Cache) snapshotDoneLocked(cut *snapshotCut, named map[string]bool, err error) {
	for _, em := range cut.encoded {
		c.store.countEncode(em)
	}
	c.stats.DiskRetries += cut.retries
	if err == nil && cut.tier == c.store.disk {
		c.store.resave(named)
	}
}

// snapshotCut is the registry as a SaveAll cut saw it — each schema's
// name, source and modules in manifest order, each module with the blob
// its target directory indexes, else its states in memory, else neither
// (immutable, so valid off the lock) — plus what the write counts.
type snapshotCut struct {
	tier    *diskTier // writes the blobs
	schemas []manifestSchema
	modules [][]cutModule // per schema
	encoded []*EncodedModule
	retries int
}

type cutModule struct {
	em   *EncodedModule
	blob diskEntry // hash "" for none
	kv   *kvcache.Cache
}

// cutLocked records every schema for a snapshot into dir, in name order,
// with its modules: declared, then scaffolds.
func (c *Cache) cutLocked(dir string) (*snapshotCut, error) {
	tier, codec := c.store.disk, CodecFP32
	if tier != nil {
		codec = tier.codec
	}
	if tier == nil || tier.dir != dir {
		tier = newDiskTier(dir, codec) // blob writer only; index unused
	}
	cut := &snapshotCut{tier: tier}
	for _, name := range slices.Sorted(maps.Keys(c.schemas)) {
		var mods []cutModule
		for _, mod := range c.schemas[name].order {
			em := c.store.modules[name+"/"+mod]
			if em == nil {
				return nil, fmt.Errorf("%w: schema %q missing module %q", ErrBadSnapshot, name, mod)
			}
			m := cutModule{em: em, kv: em.KV}
			if entry, ok := tier.index[em.key()]; ok {
				// The new manifest will name this blob: keep it from
				// unindex while the write runs off the lock.
				m.blob, m.kv = entry, nil
				tier.saved[entry.hash] = true
			}
			mods = append(mods, m)
		}
		cut.schemas = append(cut.schemas, manifestSchema{Name: name, PML: c.schemas[name].src})
		cut.modules = append(cut.modules, mods)
	}
	return cut, nil
}

// writeSnapshot writes a cut's blobs, vocabulary and manifest, off the
// lock, and returns the blob hashes the manifest names.
func (c *Cache) writeSnapshot(cut *snapshotCut) (map[string]bool, error) {
	dir := cut.tier.dir
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, err
	}
	named := map[string]bool{}
	man := diskManifest{
		Version: manifestVersion,
		Codec:   cut.tier.codec.String(),
		NLayers: c.m.Cfg.NLayers,
		KVDim:   c.m.Cfg.KVDim(),
	}
	for i, ms := range cut.schemas {
		for _, m := range cut.modules[i] {
			em := m.em
			entry, err := c.snapshotBlob(cut, m)
			switch {
			case err != nil:
				return nil, fmt.Errorf("core: snapshot %s: %w", em.key(), err)
			case em.Layout != nil:
				ms.Modules = append(ms.Modules, manifestEntry(em.Name, entry))
			default:
				ms.Scaffolds = append(ms.Scaffolds, manifestEntry(strings.TrimPrefix(em.Name, scaffoldPrefix), entry))
			}
			named[entry.hash] = true
		}
		man.Schemas = append(man.Schemas, ms)
	}
	var vocab bytes.Buffer
	if err := c.tok.SaveVocab(&vocab); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(vocabPath(dir), vocab.Bytes()); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	return named, writeFileAtomic(manifestPath(dir), data)
}

// snapshotBlob writes a cut module's blob, unless the cut found one. A
// module the cut found no states for is produced as a serve produces a
// pending part: its blob is read (readPart), and re-encoded when that
// fails.
func (c *Cache) snapshotBlob(cut *snapshotCut, m cutModule) (diskEntry, error) {
	if m.blob.hash != "" {
		return m.blob, nil
	}
	if m.kv == nil {
		r := c.readPart(servePart{key: m.em.key(), pending: m.em})
		cut.retries += r.retries
		if m.kv = r.kv; r.err != nil {
			var err error
			if m.kv, err = c.encodeStates(m.em); err != nil {
				return diskEntry{}, err
			}
			cut.encoded = append(cut.encoded, m.em)
		}
	}
	return cut.tier.writeBlob(m.kv, m.em.spillCodec(cut.tier.codec))
}

func manifestEntry(name string, entry diskEntry) manifestModule {
	return manifestModule{
		Name:   name,
		Hash:   entry.hash,
		Codec:  entry.codec.String(),
		Bytes:  entry.bytes,
		Tokens: entry.tokens,
	}
}

func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// OpenDir constructs a Cache from a SaveAll snapshot: every schema in the
// manifest is re-registered from its persisted source with all module
// states, scaffolds included, left on disk (stateDisk) — nothing is
// prefilled or read, so opening is cheap and needs no pool space, and
// the first serve of each module reads its blob back and promotes it, a
// cache hit rather than a re-encode. The returned cache keeps dir as its
// disk tier so later evictions spill into the same store: a WithDiskTier
// option naming the same dir keeps its codec (an explicit flag beats the
// snapshot's recorded one — each blob carries its own codec, so reading
// is unaffected); otherwise the tier adopts the manifest's codec.
func OpenDir(m *model.Model, dir string, opts ...Option) (*Cache, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("core: opening snapshot: %w", err)
	}
	var man diskManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrBadSnapshot, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrBadSnapshot, man.Version)
	}
	codec, err := ParseCodec(man.Codec)
	if err != nil {
		return nil, err
	}
	c := NewCache(m, opts...)
	if c.store.disk == nil || c.store.disk.dir != dir {
		c.store.disk = newDiskTier(dir, codec)
		c.store.disk.inject = c.inject
	}
	if man.NLayers != m.Cfg.NLayers || man.KVDim != m.Cfg.KVDim() {
		return nil, fmt.Errorf("%w: snapshot shaped (%d,%d), model needs (%d,%d)",
			ErrBadSnapshot, man.NLayers, man.KVDim, m.Cfg.NLayers, m.Cfg.KVDim())
	}
	if f, err := os.Open(vocabPath(dir)); err == nil {
		lerr := c.tok.LoadVocab(f)
		f.Close()
		if lerr != nil {
			return nil, lerr
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ms := range man.Schemas {
		if err := c.restoreSchemaLocked(ms); err != nil {
			return nil, fmt.Errorf("core: restoring schema %q: %w", ms.Name, err)
		}
	}
	return c, nil
}

// restoreSchemaLocked registers one manifest schema with all modules
// disk-resident. A failure leaves its registrations for OpenDir to
// discard with the cache: nothing a restore does deletes a blob.
func (c *Cache) restoreSchemaLocked(ms manifestSchema) error {
	schema, err := pml.ParseSchema(ms.PML)
	if err != nil {
		return err
	}
	layout, err := pml.Compile(schema, c.tok, c.tmpl)
	if err != nil {
		return err
	}
	if len(ms.Modules) != len(layout.Order) || len(ms.Scaffolds) != len(schema.Scaffolds) {
		return fmt.Errorf("%w: snapshot has %d modules and %d scaffolds, schema has %d and %d",
			ErrBadSnapshot, len(ms.Modules), len(ms.Scaffolds), len(layout.Order), len(schema.Scaffolds))
	}
	if _, ok := c.schemas[schema.Name]; ok {
		return fmt.Errorf("%w: schema %q listed twice", ErrBadSnapshot, schema.Name)
	}
	entry, ems := newSchemaEntry(schema, layout, ms.PML)
	c.schemas[schema.Name] = entry
	// The manifest lists declared modules, then scaffolds, in entry order.
	listed := append(slices.Clip(ms.Modules), ms.Scaffolds...)
	for i, em := range ems {
		mm := listed[i]
		de, err := mm.diskEntry(em.rows())
		if want := strings.TrimPrefix(em.Name, scaffoldPrefix); mm.Name != want {
			err = fmt.Errorf("%w: snapshot module %q, schema expects %q", ErrBadSnapshot, mm.Name, want)
		}
		if err != nil {
			return err
		}
		c.store.restore(em, de)
	}
	for _, mm := range ms.Mined {
		if err := mm.checkHash(); err != nil {
			return err
		}
		c.store.disk.saved[mm.Hash] = true
	}
	return nil
}

// diskEntry checks a manifest entry against the row count of the module
// it restores and returns its blob reference.
func (mm manifestModule) diskEntry(rows int) (diskEntry, error) {
	if err := mm.checkHash(); err != nil {
		return diskEntry{}, err
	}
	if mm.Tokens != rows {
		return diskEntry{}, fmt.Errorf("%w: snapshot %q has %d tokens, module expects %d (schema text or tokenizer changed)", ErrBadSnapshot, mm.Name, mm.Tokens, rows)
	}
	codec, err := ParseCodec(mm.Codec)
	if err != nil {
		return diskEntry{}, fmt.Errorf("%w: snapshot %q: %v", ErrBadSnapshot, mm.Name, err)
	}
	return diskEntry{hash: mm.Hash, codec: codec, bytes: mm.Bytes, tokens: mm.Tokens}, nil
}

// checkHash accepts only what writeBlob names a blob: 64 lowercase hex
// digits. A manifest's hash becomes a file name under blobs/, and a blob
// that fails its check is removed, so a hash holding a path segment must
// never reach blobPath.
func (mm manifestModule) checkHash() error {
	ok := len(mm.Hash) == 2*sha256.Size
	for i := 0; ok && i < len(mm.Hash); i++ {
		c := mm.Hash[i]
		ok = '0' <= c && c <= '9' || 'a' <= c && c <= 'f'
	}
	if !ok {
		return fmt.Errorf("%w: snapshot %q: blob hash %q is not a sha256", ErrBadSnapshot, mm.Name, mm.Hash)
	}
	return nil
}

// resolveParts completes a serve plan whose parts include pending
// modules, resolving each with resolvePart. Freshly pinned modules are
// appended to plan.pinned, so they release with the serve's other pins.
func (c *Cache) resolveParts(plan *servePlan) error {
	for i, p := range plan.parts {
		if p.pending == nil {
			continue
		}
		part, err := c.resolvePart(p)
		if err != nil {
			return err
		}
		if part.em != nil {
			plan.pinned = append(plan.pinned, part.em)
		}
		plan.parts[i] = part
	}
	return nil
}

// resolvePart completes one pending part, of either module kind: the one
// place a serve produces states it does not hold, by a blob read or by a
// re-encode, and both run outside the cache lock (disk IO and prefill
// must never serialize serving). A registered module with a blob has it
// read (readPart); a brief re-lock installs the states
// (tierStore.install). When there was no blob, or it failed, the
// module re-encodes its stream, which a last re-lock installs the same
// way.
func (c *Cache) resolvePart(p servePart) (servePart, error) {
	r := c.readPart(p)
	c.mu.Lock()
	part, err := c.store.install(p, r)
	c.mu.Unlock()
	if err != nil || part.pending == nil {
		return part, err
	}
	kv, err := c.encodeStates(p.pending)
	if err != nil {
		return servePart{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store.install(p, produced{kv: kv, encoded: true})
}

// readPart reads a pending part's blob, with transient-error retry and
// backoff — the only blob path that may sleep — and checks it. The
// entry, the blob file and the expected shape are immutable, so only the
// entry's lookup takes the lock, and a concurrent removal (schema drop)
// surfaces as a read error.
func (c *Cache) readPart(p servePart) produced {
	c.mu.Lock()
	entry, ok := c.store.blob(p)
	c.mu.Unlock()
	if !ok {
		return produced{err: fmt.Errorf("core: module %s has no blob entry: %w", p.key, errCorruptBlob)}
	}
	kv, retries, err := c.store.disk.readBlobRetry(entry)
	if err == nil {
		err = c.checkBlob(p.key, kv, p.pending.rows())
	}
	return produced{kv: kv, retries: retries, err: err}
}
