package core

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"slices"

	"repro/internal/kvcache"
)

// tierStore owns module residency, the tier state machine every cached
// attention state runs (§4.1's cache replacement, plus a durable disk
// tier): every registered module of every kind by key, with its
// moduleState and serve pins; the device and host ledgers; and the disk
// index. Its methods are the transitions — acquire, install, release,
// make room, remove, restore — and all run under Cache.mu. It holds no
// model and reads no blob: the Cache produces the states it lacks off
// the lock (encodes, blob reads) and hands them in, so a test drives it
// with its own producers (tierstore_test.go). Its one file IO is the
// spill write.
//
// Each tier's bytes are recorded once. A module is resident exactly when
// it is a member of the device ledger and demoted exactly when it is one
// of the host's, and the disk tier's bytes are its index's, so the tier
// gauges equal the modules they hold by construction.
type tierStore struct {
	// device ranks the resident modules for eviction, least recently
	// placed or served first (LRU, §4.1's cache replacement).
	device *ledger
	// host, when set, receives evicted states instead of dropping them
	// (two-tier §4.1); disk, when set, is the durable tier below it, so
	// states that would drop spill to blobs instead. nil disables either.
	// The host ranks its occupants by demotion time: a demoted module is
	// never touched until it is promoted, so the oldest is the coldest,
	// and hostAlloc sends it one tier down to make room for a hotter
	// victim.
	host *ledger
	disk *diskTier
	// modules indexes every registered module by key ("schema/name").
	modules map[string]*EncodedModule
	// stats is the owning cache's counters.
	stats *Stats
}

// ledger is one memory tier's account: its capacity in bytes (0 for
// uncapped), the bytes its members hold, and the members — module keys
// with their sizes — least recently added or touched first.
type ledger struct {
	capacity, used int64
	order          list.List // of ledgerEntry
	members        map[string]*list.Element
}

type ledgerEntry struct {
	key  string
	size int64
}

func newLedger(capacity int64) *ledger {
	return &ledger{capacity: capacity, members: make(map[string]*list.Element)}
}

// fits reports whether size more bytes fit beside the members.
func (l *ledger) fits(size int64) bool { return l.capacity == 0 || l.used+size <= l.capacity }

// add makes key, which is no member, the most recent member, holding
// size bytes.
func (l *ledger) add(key string, size int64) {
	l.members[key] = l.order.PushBack(ledgerEntry{key, size})
	l.used += size
}

// touch makes a member the most recent.
func (l *ledger) touch(key string) { l.order.MoveToBack(l.members[key]) }

// remove forgets key's membership, if it has one.
func (l *ledger) remove(key string) {
	if el, ok := l.members[key]; ok {
		l.used -= l.order.Remove(el).(ledgerEntry).size
		delete(l.members, key)
	}
}

// oldest returns the least recent member that skip (nil for none) does
// not take; ok is false when there is none.
func (l *ledger) oldest(skip func(key string) bool) (key string, ok bool) {
	for el := l.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(ledgerEntry); skip == nil || !skip(e.key) {
			return e.key, true
		}
	}
	return "", false
}

// countEncode counts one encode of a module's stream.
func (s *tierStore) countEncode(em *EncodedModule) {
	s.stats.ModulesEncoded++
	s.stats.TokensEncoded += len(em.Toks)
}

// fits is the one room check: it refuses, with ErrCapacity, states one
// of which could not fit the device once the modules of schema leaving
// ("" for none) are gone and eviction has freed all it can. The room is
// the capacity less the modules open serves hold.
func (s *tierStore) fits(leaving string, kvs ...*kvcache.Cache) error {
	if s.device.capacity == 0 {
		return nil
	}
	room := s.device.capacity - s.device.used
	for el := s.device.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(ledgerEntry)
		if em := s.modules[e.key]; em.pins == 0 || em.Schema == leaving {
			room += e.size
		}
	}
	for _, kv := range kvs {
		if size := kv.Bytes(4); size > room {
			return fmt.Errorf("%w: %d bytes cannot fit even after eviction: %d bytes can be freed", ErrCapacity, size, room)
		}
	}
	return nil
}

// makeRoom enters kv's bytes in the device ledger under key, evicting
// unpinned modules until they fit (§4.1: "a caching mechanism that
// leverages both CPU and GPU memory... cache replacement"). When
// eviction could not free enough (fits), it fails with ErrCapacity and
// evicts nothing.
func (s *tierStore) makeRoom(key string, kv *kvcache.Cache) error {
	if err := s.fits("", kv); err != nil {
		return fmt.Errorf("module %s: %w", key, err)
	}
	size := kv.Bytes(4)
	for !s.device.fits(size) {
		if !s.evictOne() {
			return fmt.Errorf("%w: module %s: %d bytes do not fit", ErrCapacity, key, size)
		}
	}
	s.device.add(key, size)
	return nil
}

// place makes kv a module's resident states and registers the module,
// making room for them (makeRoom). A registration's encodes and a
// serve's install of produced states both enter residency here.
func (s *tierStore) place(em *EncodedModule, kv *kvcache.Cache) error {
	key := em.key()
	if err := s.makeRoom(key, kv); err != nil {
		return err
	}
	em.KV, em.state = kv, stateResident
	s.modules[key] = em
	return nil
}

// evictOne sends the device's least recent module one tier down — never
// a pinned module, whose states an in-flight prefill reads outside the
// lock: into the host tier when it can hold it (hostAlloc), else below
// it (sink). It returns false if nothing can be evicted.
func (s *tierStore) evictOne() bool {
	key, ok := s.device.oldest(func(key string) bool { return s.modules[key].pins > 0 })
	if !ok {
		return false
	}
	em := s.modules[key]
	s.device.remove(key)
	s.stats.ModulesEvicted++
	if s.hostAlloc(key, em.size()) {
		em.state = stateDemoted
		s.stats.ModulesDemoted++
	} else {
		s.sink(key, em)
	}
	return true
}

// hostAlloc enters a module's states in the host ledger. When the host
// is full it makes room by sending its oldest-demoted occupants — the
// coldest states it holds — one tier down (sink). It returns false when
// there is no host tier or the states cannot fit it.
func (s *tierStore) hostAlloc(key string, size int64) bool {
	if s.host == nil || s.host.capacity > 0 && size > s.host.capacity {
		return false
	}
	for !s.host.fits(size) {
		old, _ := s.host.oldest(nil)
		s.host.remove(old)
		s.sink(old, s.modules[old])
	}
	s.host.add(key, size)
	return true
}

// freeHost releases key's host-tier bytes, if it holds any.
func (s *tierStore) freeHost(key string) {
	if s.host != nil {
		s.host.remove(key)
	}
}

// sink sends a module evicted from the device or host tier below the
// host: it spills to the disk tier, or drops when there is none or the
// spill fails.
func (s *tierStore) sink(key string, em *EncodedModule) {
	if s.disk != nil && s.spill(key, em) == nil {
		em.state = stateDisk
		s.stats.ModulesSpilled++
	} else {
		em.state = stateDropped
	}
	em.KV = nil
}

// spill writes a module's states to the disk tier under key. When the
// key already has a blob (an earlier spill, an OpenDir restore, or a
// same-stream predecessor's) it is reused: module states are immutable
// for the life of a registration, so the existing blob is still the
// states' durable form.
func (s *tierStore) spill(key string, em *EncodedModule) error {
	if _, ok := s.disk.index[key]; ok {
		return nil
	}
	//pclint:ignore lockscope spill happens inside eviction, which must be atomic with residency bookkeeping; blobs are small and eviction rare
	entry, err := s.disk.writeBlob(em.KV, em.spillCodec(s.disk.codec))
	if err != nil {
		return err
	}
	s.index(key, entry)
	return nil
}

// index records key's blob in the disk index and its byte total.
func (s *tierStore) index(key string, entry diskEntry) {
	s.disk.index[key] = entry
	s.disk.bytes += entry.bytes
}

// unindex forgets a key's disk entry, deleting the blob when no other key
// shares its content and the directory's manifest does not name it.
func (s *tierStore) unindex(key string) {
	entry, ok := s.disk.index[key]
	if !ok {
		return
	}
	delete(s.disk.index, key)
	s.disk.bytes -= entry.bytes
	if !s.disk.saved[entry.hash] && !s.indexed(entry.hash) {
		_ = os.Remove(s.disk.blobPath(entry.hash))
	}
}

// indexed reports whether any key's disk entry is the blob hash.
func (s *tierStore) indexed(hash string) bool {
	//pclint:ignore maporder existence scan: returning on any match is the same decision in every iteration order
	for _, e := range s.disk.index {
		if e.hash == hash {
			return true
		}
	}
	return false
}

// resave records named, the blob hashes of the manifest a SaveAll just
// wrote into the disk tier's directory, as the ones unindex keeps, and
// removes the files the previous manifest or the cut kept that neither
// named nor the index still names.
func (s *tierStore) resave(named map[string]bool) {
	//pclint:ignore maporder each file's removal depends only on its own hash, so every order removes the same set
	for hash := range s.disk.saved {
		if !named[hash] && !s.indexed(hash) {
			_ = os.Remove(s.disk.blobPath(hash))
		}
	}
	s.disk.saved = named
}

// remove takes a registered module out of the store: it frees every tier
// the module holds and forgets its key. An open serve that pins it keeps
// reading its states.
func (s *tierStore) remove(em *EncodedModule) {
	if s.modules[em.key()] != em {
		return
	}
	if s.disk != nil {
		s.unindex(em.key())
	}
	s.forget(em)
}

// forget takes a registered module out of the memory tiers and the key
// index, leaving its disk entry to the caller.
func (s *tierStore) forget(em *EncodedModule) {
	key := em.key()
	s.device.remove(key)
	s.freeHost(key)
	delete(s.modules, key)
}

// dropSchema removes every module of a schema, of either kind, ahead of
// next, the modules replacing them (nil for none). A module whose
// successor in next has its key and stream — so the same states — hands
// its disk entry over instead of deleting its blob: the successor
// registers disk-resident on it, placing it keeps the entry, and its
// first eviction spills for free.
func (s *tierStore) dropSchema(name string, next []*EncodedModule) {
	heirs := map[string]*EncodedModule{}
	for _, em := range next {
		old := s.modules[em.key()]
		if old != nil && s.disk != nil && slices.Equal(old.Toks, em.Toks) && slices.Equal(old.Pos, em.Pos) {
			if _, ok := s.disk.index[em.key()]; ok {
				heirs[em.key()] = em
			}
		}
	}
	for key, em := range s.modules {
		switch {
		case em.Schema != name:
		case heirs[key] != nil:
			s.forget(em)
		default:
			s.remove(em)
		}
	}
	for _, em := range next {
		if heirs[em.key()] == em {
			em.state = stateDisk
			s.modules[em.key()] = em
		}
	}
}

// restore registers a module whose states are only a blob (an OpenDir
// restore): it is disk-resident, and the first serve that needs it reads
// the blob back.
func (s *tierStore) restore(em *EncodedModule, de diskEntry) {
	key := em.key()
	s.index(key, de)
	s.disk.saved[de.hash] = true
	em.state = stateDisk
	s.modules[key] = em
	s.stats.ModulesRestored++
}

// pin is the one place a module gains a serve pin; the returned part
// reads the module's states in place until release.
func (s *tierStore) pin(key string, em *EncodedModule) servePart {
	em.pins++
	return servePart{key: key, em: em}
}

// release drops serve pins taken by acquire or install, making the
// modules evictable again.
func (s *tierStore) release(ems []*EncodedModule) {
	for _, em := range ems {
		em.pins--
	}
}

// promote moves a demoted module back into the device tier (evicting
// others if needed). It releases its host bytes first, so the
// device's victims can demote into the room it leaves — a swap, even
// through a host one module wide. When the device cannot take it,
// makeRoom evicted nothing and the module goes back into the room it
// left; its states stay valid for a read-through either way.
func (s *tierStore) promote(key string, em *EncodedModule) error {
	s.freeHost(key)
	if err := s.makeRoom(key, em.KV); err != nil {
		if !s.hostAlloc(key, em.size()) {
			s.sink(key, em)
		}
		return err
	}
	em.state = stateResident
	s.stats.ModulesPromoted++
	return nil
}

// acquire runs one module through the tier state machine for the serve
// planning phase, both kinds alike: it returns the module's states as a
// servePart safe to read outside the lock. The happy path promotes into
// the device tier and pins the module, making it immune to eviction
// until release. When the device cannot hold the serve's whole working
// set at once — the remaining eviction victims are all pinned, typically
// by this very serve — it degrades to a read-through: demoted states are
// snapshotted straight from the host tier without claiming device
// residency, so a working set larger than the device still serves. A
// disk-resident or dropped module returns a pending part, which the
// serve reads back or re-encodes off the lock.
func (s *tierStore) acquire(key string) (servePart, error) {
	em := s.modules[key]
	if em == nil {
		return servePart{}, fmt.Errorf("%w: no module %q", ErrBadPrompt, key)
	}
	switch em.state {
	case stateDisk, stateDropped:
		// The blob read or the re-encode must not run under the
		// cache-wide lock: return a pending part; the serve resolves it
		// off-lock and re-locks briefly to install it.
		return servePart{key: key, pending: em}, nil
	case stateDemoted:
		kv := em.KV
		if err := s.promote(key, em); err != nil {
			if !errors.Is(err, ErrCapacity) {
				return servePart{}, err
			}
			// Host-tier read-through without promotion. The snapshot
			// reference stays valid even if the module is later dropped:
			// eviction only clears the module's fields, never the
			// underlying states.
			s.stats.ModulesReused++
			return servePart{key: key, kv: kv}, nil
		}
	}
	s.device.touch(key)
	s.stats.ModulesReused++
	return s.pin(key, em), nil
}

// blob returns the disk entry a pending part reads: its module's, while
// the module is still registered and indexed.
func (s *tierStore) blob(p servePart) (diskEntry, bool) {
	if s.disk == nil || s.modules[p.key] != p.pending {
		return diskEntry{}, false
	}
	entry, ok := s.disk.index[p.key]
	return entry, ok
}

// produced is what a serve produced off the lock for a pending part: a
// blob read's states, retries and failure, or a re-encode's states.
type produced struct {
	kv      *kvcache.Cache
	retries int
	err     error
	encoded bool
}

// install turns states a serve produced outside the lock into a serve
// part, counting them — a read's retries, load error or disk hit, a
// re-encode's encode and reload — and handling the races the unlocked
// window allows. A failed read counts a load error: proven corruption
// deletes the blob and drops the module so nothing retries a bad file
// forever, while a transient failure keeps both for the next access. A
// module another serve restored meanwhile goes back through acquire. A
// failed read leaves a pending part, which the serve re-encodes.
// Otherwise the states install pinned and resident — a blob stays as the
// states' durable form, so a later eviction re-spills for free — or
// serve as a read-through, without residency, when the device cannot hold
// the working set or the module was removed (schema replaced) meanwhile,
// since the serve still needs the states it planned with.
func (s *tierStore) install(p servePart, r produced) (servePart, error) {
	key, em := p.key, p.pending
	registered := s.modules[key] == em
	s.stats.DiskRetries += r.retries
	if r.encoded {
		s.countEncode(em)
		s.stats.ModulesReloaded++
	} else if r.err != nil && registered && em.state == stateDisk {
		s.stats.DiskLoadErrors++
		if errors.Is(r.err, errCorruptBlob) {
			// A corrupt blob is no state's durable form, even where a
			// manifest names it.
			delete(s.disk.saved, s.disk.index[key].hash)
			s.unindex(key)
			em.state = stateDropped
		}
	}
	restored := registered && (em.state == stateResident || em.state == stateDemoted)
	if r.err != nil && !restored {
		return servePart{key: key, pending: em}, nil
	}
	if restored {
		return s.acquire(key)
	}
	var err error
	if registered {
		err = s.place(em, r.kv)
	}
	if !r.encoded && (err == nil || errors.Is(err, ErrCapacity)) {
		s.stats.DiskHits++
		s.stats.ModulesReused++
	}
	if !registered || errors.Is(err, ErrCapacity) {
		return servePart{key: key, kv: r.kv}, nil
	}
	if err != nil {
		return servePart{}, err
	}
	return s.pin(key, em), nil
}
