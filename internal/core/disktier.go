package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kvcache"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/quant"
)

// The disk tier is the durable third level of the storage hierarchy
// (device HBM → host DRAM → disk): encoded prompt modules that would
// otherwise be dropped on eviction spill to content-addressed files,
// quantized per the tier's codec, and read back on the next serve instead
// of re-encoding. SaveAll/OpenDir extend the same blob store into a full
// warm-restart snapshot: every registered schema's layout and module
// states persist across process restarts, so a restarted server answers
// its first cached request without paying the §3.3 encoding cost again.

// Codec selects the disk tier's storage precision; it is an alias of the
// quant codec so promptcache can re-export it without leaking internals.
type Codec = quant.Codec

// Re-exported codec points: fp32 passthrough for bit-paranoid
// deployments, int8/int4 for the §6 compression trade-off.
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
// The index and pool are guarded by Cache.mu; blob files are immutable
// once written (temp+rename), so reads need no lock.
type diskTier struct {
	dir   string
	codec Codec
	// pool tracks blob occupancy, giving the disk tier the same
	// accounting surface (Used/Peak) as the device and host tiers.
	pool  *memory.Pool
	index map[string]diskEntry
	// keepBlobs suppresses blob-file deletion while an OpenDir restore
	// is cleaning up after a failure: the files are the persisted
	// snapshot, and a cache that failed to adopt them must not destroy
	// them. Guarded by Cache.mu.
	keepBlobs bool
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
		pool:  memory.NewPool(memory.Device{Name: "disk", Kind: memory.Disk}),
		index: make(map[string]diskEntry),
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

// readBlob reads and decodes an entry's blob. Requires no lock. Decode
// failures (the file exists but its content is bad) wrap errCorruptBlob;
// open errors pass through as plain IO errors.
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
	kv, _, err := quant.DecodeKV(f)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, errCorruptBlob)
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

// spillLocked writes a module's states to the disk tier under key. When
// the key already has a blob (an earlier spill, or an OpenDir restore) it
// is reused: module states are immutable for the life of a registration,
// so the existing blob is still the states' durable form.
func (c *Cache) spillLocked(key string, em *EncodedModule) error {
	if _, ok := c.disk.index[key]; ok {
		return nil
	}
	codec := c.disk.codec
	if em.Mined != nil {
		// Mined modules are bit-exact by contract (splice vs cold serve
		// must produce identical logits); never quantize their spills.
		codec = CodecFP32
	}
	//pclint:ignore lockscope spill happens inside eviction, which must be atomic with residency bookkeeping; blobs are small and eviction rare
	entry, err := c.disk.writeBlob(em.States(), codec)
	if err != nil {
		return err
	}
	if err := c.disk.pool.Alloc(key, entry.bytes); err != nil {
		c.stats.TierAccountErrors++
	}
	c.disk.index[key] = entry
	return nil
}

// removeDiskLocked forgets a key's disk entry, deleting the blob when no
// other key shares its content.
func (c *Cache) removeDiskLocked(key string) {
	entry, ok := c.disk.index[key]
	if !ok {
		return
	}
	delete(c.disk.index, key)
	c.freeTracked(c.disk.pool, key)
	if c.disk.keepBlobs {
		return
	}
	//pclint:ignore maporder existence scan: returning on any match is the same decision in every iteration order
	for _, e := range c.disk.index {
		if e.hash == entry.hash {
			return
		}
	}
	_ = os.Remove(c.disk.blobPath(entry.hash))
}

// errCorruptBlob marks a blob whose *content* is proven bad — a failed
// decode or a validation mismatch — as opposed to a transient IO error
// (open failure, EIO) where the durable file may be perfectly fine.
// Only proven corruption justifies deleting durable data.
var errCorruptBlob = errors.New("corrupt blob")

// diskLoadLocked reads a disk-resident module's states back and validates
// them against the layout and model shape. Content errors wrap
// errCorruptBlob; plain IO errors do not.
func (c *Cache) diskLoadLocked(key string, em *EncodedModule) (*kvcache.Cache, error) {
	entry, ok := c.disk.index[key]
	if !ok {
		return nil, fmt.Errorf("core: module %s is on disk but has no blob entry: %w", key, errCorruptBlob)
	}
	//pclint:ignore lockscope snapshot path (SaveAll of a disk-resident module): blob reads under the lock are the documented one-time cost; serves use the off-lock resolveDiskParts
	kv, err := c.disk.readBlob(entry)
	if err != nil {
		return nil, fmt.Errorf("core: disk tier %s: %w", key, err)
	}
	if kv.NLayers != c.m.Cfg.NLayers || kv.KVDim != c.m.Cfg.KVDim() {
		return nil, fmt.Errorf("core: disk blob %s shaped (%d,%d), model needs (%d,%d): %w",
			key, kv.NLayers, kv.KVDim, c.m.Cfg.NLayers, c.m.Cfg.KVDim(), errCorruptBlob)
	}
	if em.Layout != nil {
		toks, _ := moduleTokens(em.Layout)
		if kv.Len() != len(toks) {
			return nil, fmt.Errorf("core: disk blob %s has %d tokens, layout expects %d: %w",
				key, kv.Len(), len(toks), errCorruptBlob)
		}
	} else if em.Mined != nil && kv.Len() != len(em.Mined.Toks) {
		return nil, fmt.Errorf("core: disk blob %s has %d tokens, mined prefix expects %d: %w",
			key, kv.Len(), len(em.Mined.Toks), errCorruptBlob)
	}
	return kv, nil
}

// diskLoadFailedLocked records a blob read-back failure. Proven
// corruption deletes the blob and drops the module so nothing retries a
// bad file forever; a transient IO error keeps both — the durable copy
// may be intact and the next access retries it. Either way the caller
// re-encodes to satisfy the current request.
func (c *Cache) diskLoadFailedLocked(key string, em *EncodedModule, err error) {
	c.stats.DiskLoadErrors++
	if errors.Is(err, errCorruptBlob) {
		c.removeDiskLocked(key)
		em.state = stateDropped
	}
}

// installDiskStatesLocked stores loaded disk states as the module's
// resident form (compressing when the cache runs int8 storage), claiming
// primary-pool residency. The disk blob stays: it remains the states'
// durable form, so a later eviction re-spills for free.
func (c *Cache) installDiskStatesLocked(key string, em *EncodedModule, kv *kvcache.Cache) error {
	var q *quant.Compressed
	size := kv.Bytes(4)
	if c.compress && kv.Len() > 0 {
		q = quant.Compress(kv)
		size = q.Bytes()
	}
	if err := c.reserveLocked(key, size); err != nil {
		return err
	}
	if q != nil {
		em.Quant = q
		em.KV = nil
	} else {
		em.KV = kv
	}
	em.state = stateResident
	c.stats.DiskHits++
	return nil
}

// readThroughKV shapes loaded disk states for serving without residency:
// under int8 storage the states take the same compress/decompress round
// trip a resident module's would, so read-through serves stay
// bit-identical to promoted ones.
func (c *Cache) readThroughKV(kv *kvcache.Cache) *kvcache.Cache {
	if c.compress && kv.Len() > 0 {
		return quant.Compress(kv).Decompress()
	}
	return kv
}

// --- Warm-restart persistence (SaveAll / OpenDir) ---

const manifestVersion = 1

// diskManifest is the restart snapshot's root document: enough to
// re-register every schema (PML source) and locate every module's and
// scaffold's states in the blob store without re-encoding anything.
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
	// Mined persists anonymous modules promoted by the traffic observer.
	// They have no PML source, so the manifest carries the prefix itself;
	// restoring without mining enabled skips them (counted).
	Mined []manifestMined `json:"mined,omitempty"`
}

type manifestModule struct {
	Name   string `json:"name"`
	Hash   string `json:"hash"`
	Codec  string `json:"codec"`
	Bytes  int64  `json:"bytes"`
	Tokens int    `json:"tokens"`
}

// manifestMined is a mined module's manifest entry: the blob reference
// plus the class and (token, position) prefix the states reproduce.
type manifestMined struct {
	manifestModule
	Class string `json:"class"`
	Toks  []int  `json:"toks"`
	Pos   []int  `json:"pos"`
}

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }
func vocabPath(dir string) string    { return filepath.Join(dir, "vocab.json") }

// HasSnapshot reports whether dir holds a SaveAll snapshot that OpenDir
// could restore.
func HasSnapshot(dir string) bool {
	_, err := os.Stat(manifestPath(dir))
	return err == nil
}

// SaveAll persists every registered schema — layout source plus all
// module and scaffold states — into dir as a warm-restart snapshot.
// Module blobs are written with the disk tier's codec when one is
// configured (CodecFP32 otherwise); scaffold states are always fp32, as
// in memory (they exist for exactness). Modules already spilled into the
// same dir reuse their blobs. The tokenizer's learned vocabulary is saved
// alongside, so prompts tokenize identically after OpenDir.
func (c *Cache) SaveAll(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return err
	}
	codec := CodecFP32
	if c.disk != nil {
		codec = c.disk.codec
	}
	tier := c.disk
	if tier == nil || tier.dir != dir {
		tier = newDiskTier(dir, codec) // blob writer only; index unused
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	man := diskManifest{
		Version: manifestVersion,
		Codec:   codec.String(),
		NLayers: c.m.Cfg.NLayers,
		KVDim:   c.m.Cfg.KVDim(),
	}
	names := make([]string, 0, len(c.schemas))
	for name := range c.schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := c.schemas[name]
		ms := manifestSchema{Name: name, PML: e.src}
		for _, mod := range e.layout.Order {
			em := e.modules[mod]
			if em == nil {
				return fmt.Errorf("%w: schema %q missing module %q", ErrBadSnapshot, name, mod)
			}
			key := name + "/" + mod
			if em.state == stateDisk && c.disk != nil && c.disk.dir == dir {
				if entry, ok := c.disk.index[key]; ok {
					ms.Modules = append(ms.Modules, manifestEntry(mod, entry))
					continue
				}
			}
			kv, err := c.snapshotStatesLocked(name, e, mod, em, key)
			if err != nil {
				return err
			}
			//pclint:ignore lockscope SaveAll is a stop-the-world snapshot by design: the lock guarantees a consistent manifest while blobs stream out
			entry, err := tier.writeBlob(kv, codec)
			if err != nil {
				return fmt.Errorf("core: snapshot %s: %w", key, err)
			}
			ms.Modules = append(ms.Modules, manifestEntry(mod, entry))
		}
		for _, sc := range e.schema.Scaffolds {
			es := e.scaffolds[sc.Name]
			if es == nil {
				return fmt.Errorf("%w: schema %q missing scaffold %q", ErrBadSnapshot, name, sc.Name)
			}
			//pclint:ignore lockscope SaveAll is a stop-the-world snapshot by design: the lock guarantees a consistent manifest while blobs stream out
			entry, err := tier.writeBlob(es.KV, CodecFP32)
			if err != nil {
				return fmt.Errorf("core: snapshot %s/scaffold/%s: %w", name, sc.Name, err)
			}
			ms.Scaffolds = append(ms.Scaffolds, manifestEntry(sc.Name, entry))
		}
		// Mined modules persist with their prefix (always fp32); one that
		// cannot be snapshotted is skipped with a counted stat rather
		// than failing the snapshot — it will simply re-mine after the
		// restart.
		var minedNames []string
		for mod, em := range e.modules {
			if em.Mined != nil {
				minedNames = append(minedNames, mod)
			}
		}
		sort.Strings(minedNames)
		for _, mod := range minedNames {
			em := e.modules[mod]
			key := name + "/" + mod
			if em.state == stateDisk && c.disk != nil && c.disk.dir == dir {
				if entry, ok := c.disk.index[key]; ok {
					ms.Mined = append(ms.Mined, manifestMinedEntry(mod, entry, em.Mined))
					continue
				}
			}
			kv, err := c.snapshotMinedStatesLocked(key, em)
			if err != nil {
				c.stats.MinedSnapshotSkipped++
				continue
			}
			//pclint:ignore lockscope SaveAll is a stop-the-world snapshot by design: the lock guarantees a consistent manifest while blobs stream out
			entry, err := tier.writeBlob(kv, CodecFP32)
			if err != nil {
				c.stats.MinedSnapshotSkipped++
				continue
			}
			ms.Mined = append(ms.Mined, manifestMinedEntry(mod, entry, em.Mined))
		}
		man.Schemas = append(man.Schemas, ms)
	}

	var vocab bytes.Buffer
	if err := c.tok.SaveVocab(&vocab); err != nil {
		return err
	}
	if err := writeFileAtomic(vocabPath(dir), vocab.Bytes()); err != nil {
		return err
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(manifestPath(dir), data)
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

func manifestMinedEntry(name string, entry diskEntry, mp *MinedPrefix) manifestMined {
	return manifestMined{
		manifestModule: manifestEntry(name, entry),
		Class:          mp.Class,
		Toks:           mp.Toks,
		Pos:            mp.Pos,
	}
}

// snapshotMinedStatesLocked materializes a mined module's states for
// persistence without changing its residency. Unlike declared modules,
// a mined module cannot re-encode, so a dropped one is unsnapshotable.
func (c *Cache) snapshotMinedStatesLocked(key string, em *EncodedModule) (*kvcache.Cache, error) {
	switch em.state {
	case stateResident, stateDemoted:
		return em.States(), nil
	case stateDisk:
		return c.diskLoadLocked(key, em)
	default:
		return nil, fmt.Errorf("%w: mined module %s has no states to snapshot", ErrBadSnapshot, key)
	}
}

// snapshotStatesLocked materializes a module's states for persistence
// without changing its residency: resident and demoted modules snapshot
// in place, disk modules read their blob back, dropped modules re-encode
// transiently.
func (c *Cache) snapshotStatesLocked(schema string, e *schemaEntry, name string, em *EncodedModule, key string) (*kvcache.Cache, error) {
	switch em.state {
	case stateResident, stateDemoted:
		return em.States(), nil
	case stateDisk:
		return c.diskLoadLocked(key, em)
	default: // stateDropped
		kv, nToks, err := c.encodeStatesLocked(schema, e, name)
		if err != nil {
			return nil, err
		}
		c.stats.ModulesEncoded++
		c.stats.TokensEncoded += nToks
		return c.readThroughKV(kv), nil
	}
}

func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// OpenDir constructs a Cache from a SaveAll snapshot: every schema in the
// manifest is re-registered from its persisted source with all module
// states left on disk (stateDisk) — nothing is prefilled, so opening is
// cheap, and the first serve of each module reads its blob back and
// promotes it, a cache hit rather than a re-encode. Scaffold states are
// restored eagerly into the pool (scaffolds are never evicted). The
// returned cache keeps dir as its disk tier so later evictions spill
// into the same store: a WithDiskTier option naming the same dir keeps
// its codec (an explicit flag beats the snapshot's recorded one — each
// blob carries its own codec, so reading is unaffected); otherwise the
// tier adopts the manifest's codec.
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
	if c.disk == nil || c.disk.dir != dir {
		c.disk = newDiskTier(dir, codec)
		c.disk.inject = c.inject
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
	// A failed restore must clean up its index without deleting blob
	// files: they are the snapshot, not this cache's property yet.
	c.disk.keepBlobs = true
	for _, ms := range man.Schemas {
		if err := c.restoreSchemaLocked(ms); err != nil {
			return nil, fmt.Errorf("core: restoring schema %q: %w", ms.Name, err)
		}
	}
	c.disk.keepBlobs = false
	return c, nil
}

// restoreSchemaLocked registers one manifest schema with all modules
// disk-resident.
func (c *Cache) restoreSchemaLocked(ms manifestSchema) error {
	schema, err := pml.ParseSchema(ms.PML)
	if err != nil {
		return err
	}
	layout, err := pml.Compile(schema, c.tok, c.tmpl)
	if err != nil {
		return err
	}
	if len(ms.Modules) != len(layout.Order) {
		return fmt.Errorf("%w: snapshot has %d modules, schema has %d", ErrBadSnapshot, len(ms.Modules), len(layout.Order))
	}
	entry := &schemaEntry{
		schema:    schema,
		layout:    layout,
		modules:   make(map[string]*EncodedModule),
		scaffolds: make(map[string]*EncodedScaffold),
		src:       ms.PML,
	}
	fail := func(err error) error {
		c.dropSchemaLocked(schema.Name, entry)
		return err
	}
	if old, ok := c.schemas[schema.Name]; ok {
		c.dropSchemaLocked(schema.Name, old)
	}
	c.schemas[schema.Name] = entry
	for i, mm := range ms.Modules {
		name := layout.Order[i]
		if mm.Name != name {
			return fail(fmt.Errorf("%w: snapshot module %q, layout expects %q", ErrBadSnapshot, mm.Name, name))
		}
		ml := layout.Modules[name]
		toks, _ := moduleTokens(ml)
		if mm.Tokens != len(toks) {
			return fail(fmt.Errorf("%w: snapshot %q has %d tokens, layout expects %d (schema text or tokenizer changed)",
				ErrBadSnapshot, name, mm.Tokens, len(toks)))
		}
		mcodec, err := ParseCodec(mm.Codec)
		if err != nil {
			return fail(err)
		}
		key := schema.Name + "/" + name
		c.disk.index[key] = diskEntry{hash: mm.Hash, codec: mcodec, bytes: mm.Bytes, tokens: mm.Tokens}
		if err := c.disk.pool.Alloc(key, mm.Bytes); err != nil {
			c.stats.TierAccountErrors++
		}
		entry.modules[name] = &EncodedModule{Name: name, Schema: schema.Name, Layout: ml, state: stateDisk}
		c.stats.ModulesRestored++
	}
	// Scaffolds restore eagerly: they are pool-pinned for exactness and
	// never evicted, so lazy disk residency has nothing to offer them.
	byName := map[string]pml.Scaffold{}
	for _, sc := range schema.Scaffolds {
		byName[sc.Name] = sc
	}
	if len(ms.Scaffolds) != len(schema.Scaffolds) {
		return fail(fmt.Errorf("%w: snapshot has %d scaffolds, schema has %d", ErrBadSnapshot, len(ms.Scaffolds), len(schema.Scaffolds)))
	}
	for _, mm := range ms.Scaffolds {
		sc, ok := byName[mm.Name]
		if !ok {
			return fail(fmt.Errorf("%w: snapshot scaffold %q not in schema", ErrBadSnapshot, mm.Name))
		}
		//pclint:ignore lockscope warm restart loads scaffolds eagerly before serving starts; nothing contends for the lock yet
		kv, err := c.disk.readBlob(diskEntry{hash: mm.Hash, codec: CodecFP32, bytes: mm.Bytes, tokens: mm.Tokens})
		if err != nil {
			return fail(fmt.Errorf("snapshot scaffold %q: %w", mm.Name, err))
		}
		if kv.NLayers != c.m.Cfg.NLayers || kv.KVDim != c.m.Cfg.KVDim() || kv.Len() != mm.Tokens {
			return fail(fmt.Errorf("%w: snapshot scaffold %q has unexpected shape", ErrBadSnapshot, mm.Name))
		}
		key := schema.Name + "/scaffold/" + sc.Name
		if err := c.reserveLocked(key, kv.Bytes(4)); err != nil {
			return fail(err)
		}
		entry.scaffolds[sc.Name] = &EncodedScaffold{Name: sc.Name, Members: sc.Modules, KV: kv}
		c.stats.ModulesRestored++
	}
	// Mined modules restore lazily like declared ones (stateDisk), and
	// the observer adopts their prefixes so lookups match immediately.
	// A cache opened without mining skips them with a counted stat —
	// the blobs stay on disk for a later mining-enabled open.
	for _, mm := range ms.Mined {
		c.adoptMinedLocked(entry, schema.Name, mm)
	}
	return nil
}

// resolveDiskParts completes a serve plan whose parts include disk-tier
// modules: each blob is read and decoded outside the cache lock (disk IO
// must never serialize serving), then a brief re-lock installs the states
// — promoting the module into the primary pool and pinning it like any
// host-tier hit, or degrading to a read-through snapshot when the pool
// cannot hold the working set. Freshly pinned modules are appended to
// plan.pinned, so they release with the serve's other pins. An unreadable
// blob degrades to a re-encode rather than failing the serve.
func (c *Cache) resolveDiskParts(plan *servePlan, schemaName string) error {
	for i := range plan.parts {
		if plan.parts[i].disk == nil {
			continue
		}
		em := plan.parts[i].disk
		key := plan.parts[i].key
		c.mu.Lock()
		entry, ok := c.disk.index[key]
		c.mu.Unlock()
		var kv *kvcache.Cache
		var loadErr error
		var retries int
		if !ok {
			loadErr = fmt.Errorf("no blob entry: %w", errCorruptBlob)
		} else {
			// Off-lock read (with transient-error retry + backoff — this
			// is the only blob path that may sleep): the entry and blob
			// file are immutable; a concurrent removal (schema drop)
			// surfaces as a read error and degrades to re-encode below.
			// Model shape is immutable too, so validation needs no lock
			// either.
			kv, retries, loadErr = c.disk.readBlobRetry(entry)
			if loadErr == nil && (kv.NLayers != c.m.Cfg.NLayers || kv.KVDim != c.m.Cfg.KVDim()) {
				loadErr = fmt.Errorf("core: disk blob %s shaped (%d,%d), model needs (%d,%d): %w",
					key, kv.NLayers, kv.KVDim, c.m.Cfg.NLayers, c.m.Cfg.KVDim(), errCorruptBlob)
			}
			if loadErr == nil && em.Layout != nil {
				if toks, _ := moduleTokens(em.Layout); kv.Len() != len(toks) {
					loadErr = fmt.Errorf("core: disk blob %s has %d tokens, layout expects %d: %w",
						key, kv.Len(), len(toks), errCorruptBlob)
				}
			}
		}
		c.mu.Lock()
		c.stats.DiskRetries += retries
		part, err := c.installDiskPartLocked(schemaName, key, em, kv, loadErr)
		if err == nil && part.em != nil {
			plan.pinned = append(plan.pinned, part.em)
		}
		c.mu.Unlock()
		if err != nil {
			return err
		}
		plan.parts[i] = part
	}
	return nil
}

// installDiskPartLocked turns an off-lock blob load into a serve part,
// handling the races an unlocked read window allows: another serve may
// have promoted the module first, or eviction may have cycled it. When
// the load failed, the module degrades to dropped and re-encodes.
func (c *Cache) installDiskPartLocked(schemaName, key string, em *EncodedModule, kv *kvcache.Cache, loadErr error) (servePart, error) {
	if loadErr != nil {
		switch em.state {
		case stateDisk, stateDropped:
			if em.state == stateDisk {
				c.diskLoadFailedLocked(key, em, loadErr)
			}
			// No usable copy anywhere: re-encode for this serve. A
			// transiently unreadable blob survives for the next access;
			// a corrupt one was just deleted.
			e, ok := c.schemas[schemaName]
			if !ok {
				return servePart{}, fmt.Errorf("%w: %q", ErrUnknownSchema, schemaName)
			}
			return c.reencodeForServeLocked(schemaName, e, em.Name, key)
		}
		// Resident or demoted: another serve rescued the states while we
		// failed to read; the branches below never touch kv.
	}
	switch em.state {
	case stateResident:
		// Another serve promoted it while we read; share its states.
		c.policy.Touch(key, em.Bytes())
		c.stats.ModulesReused++
		em.pins++
		return servePart{key: key, em: em}, nil
	case stateDemoted:
		if err := c.promoteLocked(key, em); err != nil {
			if !errors.Is(err, ErrCapacity) {
				return servePart{}, err
			}
			c.stats.ModulesReused++
			return servePart{key: key, kv: em.States()}, nil
		}
		c.policy.Touch(key, em.Bytes())
		c.stats.ModulesReused++
		em.pins++
		return servePart{key: key, em: em}, nil
	case stateDropped:
		// The blob (and states) vanished under us but our copy is good:
		// serve it transiently, like a host-tier read-through.
		c.stats.DiskHits++
		c.stats.ModulesReused++
		return servePart{key: key, kv: c.readThroughKV(kv)}, nil
	default: // stateDisk
		if err := c.installDiskStatesLocked(key, em, kv); err != nil {
			if !errors.Is(err, ErrCapacity) {
				return servePart{}, err
			}
			// Pool cannot hold the working set: serve the loaded copy
			// without residency.
			c.stats.DiskHits++
			c.stats.ModulesReused++
			return servePart{key: key, kv: c.readThroughKV(kv)}, nil
		}
		c.policy.Touch(key, em.Bytes())
		c.stats.ModulesReused++
		em.pins++
		return servePart{key: key, em: em}, nil
	}
}
