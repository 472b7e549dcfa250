package core

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/evict"
	"repro/internal/kvcache"
	"repro/internal/memory"
	"repro/internal/mining"
)

// tierStore owns module residency, the tier state machine every cached
// attention state runs (§4.1's cache replacement, plus a durable disk
// tier): every registered module of every kind by key, with its
// moduleState and serve pins; the device, host and disk pools; the
// eviction policy and the host's demoted ranking; and the disk index.
// Its methods are the transitions — acquire, install, release, make
// room, remove, restore — and all run under Cache.mu. It holds no model
// and reads no blob: the Cache produces the states it lacks off the lock
// (encodes, blob reads) and hands them in, so a test drives it with its
// own producers (tierstore_test.go). Its one file IO is the spill write.
type tierStore struct {
	device *memory.Pool
	// host, when set, receives evicted states instead of dropping them
	// (two-tier §4.1); disk, when set, is the durable tier below it, so
	// states that would drop spill to blobs instead. nil disables either.
	host *memory.Pool
	disk *diskTier
	// policy ranks resident modules' keys for eviction when the device
	// pool fills (§6's cache-replacement direction; default LRU).
	policy evict.Policy
	// demoted ranks the host's occupants by demotion time. A demoted
	// module is never touched until it is promoted, so the oldest demoted
	// is the coldest: hostAlloc sends it one tier down to make room for a
	// hotter victim.
	demoted *evict.LRU
	// modules indexes every registered module by key ("schema/name").
	modules map[string]*EncodedModule
	// stats is the owning cache's counters.
	stats *Stats
	// miner, when set, is told when a mined module is removed for good.
	miner *mining.Miner
}

// free releases a pool reservation, counting a failure — a gauge that no
// longer reflects reality — in TierAccountErrors rather than dropping it.
func (s *tierStore) free(p *memory.Pool, key string) {
	if err := p.Free(key); err != nil {
		s.stats.TierAccountErrors++
	}
}

// countEncode counts one encode of a module's stream.
func (s *tierStore) countEncode(em *EncodedModule) {
	s.stats.ModulesEncoded++
	s.stats.TokensEncoded += len(em.Toks)
}

// fits is the one room check: it refuses, with ErrCapacity, states one
// of which could not fit the device pool once the modules of schema
// leaving ("" for none) are gone and eviction has freed all it can. The
// room is the capacity less what neither frees — modules held by open
// serves, and reservations that are no module's.
func (s *tierStore) fits(leaving string, kvs ...*kvcache.Cache) error {
	if s.device.Capacity() == 0 {
		return nil
	}
	room := s.device.Capacity() - s.device.Used()
	for key, em := range s.modules {
		if (em.pins == 0 || em.Schema == leaving) && s.device.Has(key) {
			room += em.size()
		}
	}
	for _, kv := range kvs {
		if size := kv.Bytes(4); size > room {
			return fmt.Errorf("%w: %d bytes cannot fit even after eviction: %d bytes can be freed", ErrCapacity, size, room)
		}
	}
	return nil
}

// makeRoom reserves kv's bytes in the device pool under key, evicting
// unpinned modules until the reservation fits (§4.1: "a caching mechanism that
// leverages both CPU and GPU memory... cache replacement"). When
// eviction could not free enough (fits), it fails with ErrCapacity and
// evicts nothing.
func (s *tierStore) makeRoom(key string, kv *kvcache.Cache) error {
	if err := s.fits("", kv); err != nil {
		return fmt.Errorf("module %s: %w", key, err)
	}
	for {
		err := s.device.Alloc(key, kv.Bytes(4))
		if !errors.Is(err, memory.ErrOutOfMemory) {
			return err
		}
		if !s.evictOne() {
			return fmt.Errorf("%w: module %s: %v", ErrCapacity, key, err)
		}
	}
}

// place makes kv a module's resident states and registers the module,
// making room for them (makeRoom) and ranking them with the policy. A
// registration's encodes, a mined promotion and a serve's install of
// produced states all enter residency here.
func (s *tierStore) place(em *EncodedModule, kv *kvcache.Cache) error {
	key := em.key()
	if err := s.makeRoom(key, kv); err != nil {
		return err
	}
	em.KV, em.state = kv, stateResident
	s.modules[key] = em
	s.policy.Touch(key, em.size())
	return nil
}

// evictOne sends the policy's next victim one tier down — never a pinned
// module, whose states an in-flight prefill reads outside the lock: into
// the host tier when it can hold it (hostAlloc), else below it (sink).
// It returns false if nothing can be evicted.
func (s *tierStore) evictOne() bool {
	pinned := func(key string) bool {
		em := s.modules[key]
		return em != nil && em.pins > 0
	}
	for {
		key, ok := s.policy.VictimExcluding(pinned)
		if !ok {
			return false
		}
		s.policy.Remove(key)
		if !s.device.Has(key) {
			continue // stale policy entry; clean up and retry
		}
		s.free(s.device, key)
		s.stats.ModulesEvicted++
		if em := s.modules[key]; em != nil {
			if s.hostAlloc(key, em.size()) {
				em.state = stateDemoted
				s.stats.ModulesDemoted++
			} else {
				s.sink(key, em)
			}
		}
		return true
	}
}

// hostAlloc reserves host-tier space for a module's states. When the
// host is full it makes room by sending its oldest-demoted occupants —
// the coldest states it holds — one tier down (sink). It returns false
// when there is no host tier or the states cannot fit it.
func (s *tierStore) hostAlloc(key string, size int64) bool {
	if s.host == nil || s.host.Capacity() > 0 && size > s.host.Capacity() {
		return false
	}
	for {
		err := s.host.Alloc(key, size)
		if err == nil {
			s.demoted.Touch(key, size)
			return true
		}
		if !errors.Is(err, memory.ErrOutOfMemory) {
			return false
		}
		old, ok := s.demoted.Victim()
		if !ok {
			return false
		}
		s.freeHost(old)
		if oem := s.modules[old]; oem != nil && oem.state == stateDemoted {
			s.sink(old, oem)
		}
	}
}

// freeHost releases key's host-tier reservation, if it holds one.
func (s *tierStore) freeHost(key string) {
	s.demoted.Remove(key)
	if s.host != nil && s.host.Has(key) {
		s.free(s.host, key)
	}
}

// sink sends a module evicted from the device or host tier below the
// host: it spills to the disk tier, or drops when there is none or the
// spill fails. A mined module cannot re-encode, so its drop is terminal:
// it is removed (removeMined).
func (s *tierStore) sink(key string, em *EncodedModule) {
	if s.disk != nil && s.spill(key, em) == nil {
		em.state = stateDisk
		s.stats.ModulesSpilled++
	} else {
		em.state = stateDropped
	}
	em.KV = nil
	if em.Mined != nil && em.state == stateDropped {
		s.removeMined(em)
	}
}

// spill writes a module's states to the disk tier under key. When the
// key already has a blob (an earlier spill, or an OpenDir restore) it is
// reused: module states are immutable for the life of a registration, so
// the existing blob is still the states' durable form.
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

// index records key's blob in the disk index and the disk pool.
func (s *tierStore) index(key string, entry diskEntry) {
	if err := s.disk.pool.Alloc(key, entry.bytes); err != nil {
		s.stats.TierAccountErrors++
	}
	s.disk.index[key] = entry
}

// unindex forgets a key's disk entry, deleting the blob when no other key
// shares its content.
func (s *tierStore) unindex(key string) {
	entry, ok := s.disk.index[key]
	if !ok {
		return
	}
	delete(s.disk.index, key)
	s.free(s.disk.pool, key)
	if s.disk.keepBlobs {
		return
	}
	//pclint:ignore maporder existence scan: returning on any match is the same decision in every iteration order
	for _, e := range s.disk.index {
		if e.hash == entry.hash {
			return
		}
	}
	_ = os.Remove(s.disk.blobPath(entry.hash))
}

// remove takes a registered module out of the store: it frees every tier
// the module holds and forgets its key. An open serve that pins it keeps
// reading its states.
func (s *tierStore) remove(em *EncodedModule) {
	key := em.key()
	if s.modules[key] != em {
		return
	}
	if s.device.Has(key) {
		s.free(s.device, key)
	}
	s.freeHost(key)
	if s.disk != nil {
		s.unindex(key)
	}
	s.policy.Remove(key)
	delete(s.modules, key)
}

// dropSchema removes every module of a schema, of any kind.
func (s *tierStore) dropSchema(name string) {
	for _, em := range s.modules {
		if em.Schema == name {
			s.remove(em)
		}
	}
}

// removeMined removes a mined module for good and confirms the removal
// to the observer. Unlike declared modules, a mined module cannot
// re-encode (its states came from a live serve), so removal is its
// terminal state.
func (s *tierStore) removeMined(em *EncodedModule) {
	s.remove(em)
	em.KV = nil
	em.state = stateDropped
	if s.miner != nil {
		s.miner.Demoted(em.Name)
	}
	s.stats.MinedDemotions++
}

// restore registers a module whose states are only a blob (an OpenDir
// restore): it is disk-resident, and the first serve that needs it reads
// the blob back.
func (s *tierStore) restore(em *EncodedModule, de diskEntry) {
	key := em.key()
	s.index(key, de)
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

// promote moves a demoted module back into the device pool (evicting
// others if needed). It releases its host reservation first, so the
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
// planning phase, every kind alike: it returns the module's states as a
// servePart safe to read outside the lock. The happy path promotes into
// the device pool and pins the module, making it immune to eviction
// until release. When the pool cannot hold the serve's whole working
// set at once — the remaining eviction victims are all pinned, typically
// by this very serve — it degrades to a read-through: demoted states are
// snapshotted straight from the host tier without claiming device
// residency, so a working set larger than the pool still serves. A
// disk-resident module returns a pending part for the serve to resolve
// off the lock; a dropped one is unavailable's.
func (s *tierStore) acquire(key string) (servePart, error) {
	em := s.modules[key]
	if em == nil {
		return servePart{}, fmt.Errorf("%w: no module %q", ErrBadPrompt, key)
	}
	switch em.state {
	case stateDropped:
		return s.unavailable(key, em)
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
	case stateDisk:
		// The blob read is disk IO and must not run under the cache-wide
		// lock: return a pending part; the serve resolves it off-lock and
		// re-locks briefly to install it.
		return servePart{key: key, pending: em}, nil
	}
	s.policy.Touch(key, em.size())
	s.stats.ModulesReused++
	return s.pin(key, em), nil
}

// errMinedMiss reports a mined module whose states cannot be had; the
// mined splice turns it into a miss, never a failed serve.
var errMinedMiss = errors.New("core: mined module states unavailable")

// unavailable serves a module whose states are gone (dropped, or a disk
// blob that failed to read). A declared module or scaffold re-encodes
// its stream: it returns a pending part, which the serve encodes outside
// the lock and installs. A mined module cannot — its states came from a
// live serve — so the serve counts a miss, and a mined module dropped
// for good is removed.
func (s *tierStore) unavailable(key string, em *EncodedModule) (servePart, error) {
	if em.Mined != nil {
		if em.state == stateDropped && s.modules[key] == em {
			s.removeMined(em)
		}
		return servePart{}, errMinedMiss
	}
	return servePart{key: key, pending: em}, nil
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
// mined module collected meanwhile is a miss: its removal is already
// counted and confirmed to the observer. A module another serve
// restored meanwhile goes back through acquire. A failed read leaves the
// module unavailable (a pending part for a re-encode, or a mined miss).
// Otherwise the states install pinned and resident — a blob stays as the
// states' durable form, so a later eviction re-spills for free — or
// serve as a read-through, without residency, when the pool cannot hold
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
			s.unindex(key)
			em.state = stateDropped
		}
	}
	restored := registered && (em.state == stateResident || em.state == stateDemoted)
	if !registered && em.Mined != nil {
		return servePart{}, errMinedMiss
	}
	if r.err != nil && !restored {
		return s.unavailable(key, em)
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
