package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/tensor"
)

// The tier state machine (tierStore, with the Cache's off-lock
// resolvePart) serves declared modules and scaffolds alike. These
// tests run it on a real model: they drive a module through every
// state it can be served from, with and without room in the device
// pool, and pin the reuse accounting, the pin ledger and the output
// bits — the bits a fake encode cannot check. tierstore_test.go
// checks the store itself exhaustively at small scope with fake
// producers.

// tierPoolBytes is the device pool of the tier tests: far larger than
// the travel schema, so it is full only when a test shrinks it to what
// it holds.
const tierPoolBytes = 1 << 30

// declaredTierPrompt imports tokyo, the declared module under test.
const declaredTierPrompt = `<prompt schema="travel"><trip-plan duration="a week"/><tokyo/>Plan.</prompt>`

// evictKeyLocked sends key's module down one tier through the store's
// eviction path: every other module is pinned for the call, so the
// policy has exactly one victim.
func evictKeyLocked(t *testing.T, s *tierStore, key string) {
	t.Helper()
	others := otherModulesLocked(s, key)
	for _, em := range others {
		em.pins++
	}
	ok := s.evictOne()
	s.release(others)
	if !ok {
		t.Fatalf("%s was not evicted", key)
	}
}

// otherModulesLocked lists every module in the store but key's.
func otherModulesLocked(s *tierStore, key string) []*EncodedModule {
	var out []*EncodedModule
	for k, em := range s.modules {
		if k != key {
			out = append(out, em)
		}
	}
	return out
}

// assertNoPins fails if any module still holds a serve pin.
func assertNoPins(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, em := range c.store.modules {
		if em.pins != 0 {
			t.Errorf("%s holds %d pins after Close", key, em.pins)
		}
	}
}

// tierDelta is the part of Stats a tier case pins.
type tierDelta struct{ reused, diskHits, promoted int }

func tierDeltaOf(before, after Stats) tierDelta {
	return tierDelta{
		reused:   after.ModulesReused - before.ModulesReused,
		diskHits: after.DiskHits - before.DiskHits,
		promoted: after.ModulesPromoted - before.ModulesPromoted,
	}
}

// TestTierStateMachine serves a declared module (tokyo) from each
// tier state — resident, demoted to host, spilled to disk, dropped —
// once with room in the device pool and once with the pool full and
// every other module pinned, which forces the read-through branches.
// Each serve must match a cold serve bit for bit, count the state's
// reuse exactly, and leave no pin behind once closed. Three declared
// modules are always resident (the schema preamble, trip-plan and the
// city), so every serve reuses at least three.
func TestTierStateMachine(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	cold, err := probe.Serve(context.Background(), declaredTierPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cold.Close()

	cases := []struct {
		state moduleState
		full  bool
		want  tierDelta
	}{
		{stateResident, false, tierDelta{reused: 3}},
		{stateResident, true, tierDelta{reused: 3}},
		{stateDemoted, false, tierDelta{reused: 3, promoted: 1}},
		{stateDemoted, true, tierDelta{reused: 3}},
		{stateDisk, false, tierDelta{reused: 3, diskHits: 1}},
		{stateDisk, true, tierDelta{reused: 3, diskHits: 1}},
		// A dropped module re-encodes: a reload, not a reuse.
		{stateDropped, false, tierDelta{reused: 2}},
		{stateDropped, true, tierDelta{reused: 2}},
	}
	stateNames := map[moduleState]string{stateResident: "resident", stateDemoted: "demoted", stateDisk: "disk", stateDropped: "dropped"}
	for _, tc := range cases {
		room := "room"
		if tc.full {
			room = "full"
		}
		t.Run(fmt.Sprintf("declared/%s/%s", stateNames[tc.state], room), func(t *testing.T) {
			opts := []Option{WithDeviceCapacity(tierPoolBytes)}
			switch tc.state {
			case stateDemoted:
				opts = append(opts, WithHostTier(0))
			case stateDisk:
				opts = append(opts, WithDiskTier(t.TempDir(), CodecFP32))
			}
			c := NewCache(m, opts...)
			mustRegister(t, c, travelSchema)
			const key = "travel/tokyo"

			c.mu.Lock()
			em := c.store.modules[key]
			if tc.state != stateResident {
				evictKeyLocked(t, &c.store, key)
			}
			if em.state != tc.state {
				c.mu.Unlock()
				t.Fatalf("setup left %s in state %d, want %d", key, em.state, tc.state)
			}
			var held []*EncodedModule
			if tc.full {
				held = otherModulesLocked(&c.store, key)
				for _, o := range held {
					o.pins++
				}
				c.store.device.capacity = c.store.device.used // full
			}
			before := c.stats
			c.mu.Unlock()

			res, err := c.Serve(context.Background(), declaredTierPrompt, ServeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(cold.Logits, res.Logits); d != 0 {
				t.Errorf("logits differ from a cold serve by %v", d)
			}
			res.Close()
			if got := tierDeltaOf(before, c.Stats()); got != tc.want {
				t.Errorf("stats delta = %+v, want %+v", got, tc.want)
			}
			c.mu.Lock()
			for _, o := range held {
				o.pins--
			}
			// With room the module ends resident; a full pool serves it
			// through without moving it.
			wantState := stateResident
			if tc.full {
				wantState = tc.state
			}
			if em.state != wantState {
				t.Errorf("%s ends in state %d, want %d", key, em.state, wantState)
			}
			c.mu.Unlock()
			assertNoPins(t, c)
		})
	}
}

// TestSaveAllDiskResidentToOtherDir snapshots modules whose states live
// only in the cache's own disk tier into a different directory: SaveAll
// reads the blob back and writes it into the new store. A module dropped
// by a failed spill re-encodes into the snapshot. The restored cache
// serves both bit-identically.
func TestSaveAllDiskResidentToOtherDir(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(7)
	c := NewCache(m, WithDiskTier(t.TempDir(), CodecFP32), WithFaultInjection(inj))
	mustRegister(t, c, travelSchema)
	coldTokyo, err := c.Serve(context.Background(), declaredTierPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	coldTokyo.Close()
	const miamiPrompt = `<prompt schema="travel"><trip-plan duration="three days"/><miami/>List the best surf spots.</prompt>`
	coldMiami, err := c.Serve(context.Background(), miamiPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	coldMiami.Close()
	c.mu.Lock()
	evictKeyLocked(t, &c.store, "travel/tokyo")
	if em := c.store.modules["travel/tokyo"]; em.state != stateDisk {
		c.mu.Unlock()
		t.Fatalf("travel/tokyo not spilled: state %d", em.state)
	}
	inj.Set(FaultPointDiskWrite, faultinject.Rule{Err: faultinject.ErrNoSpace, Times: 1})
	evictKeyLocked(t, &c.store, "travel/miami")
	if em := c.store.modules["travel/miami"]; em.state != stateDropped {
		c.mu.Unlock()
		t.Fatalf("travel/miami not dropped: state %d", em.state)
	}
	c.mu.Unlock()

	dir := t.TempDir()
	if err := c.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ModulesEncoded != 5 {
		t.Fatalf("snapshot encoded other than the dropped module: %+v", st)
	}
	restored, err := OpenDir(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prompt string
		want   []float32
	}{{declaredTierPrompt, coldTokyo.Logits}, {miamiPrompt, coldMiami.Logits}} {
		res, err := restored.Serve(context.Background(), tc.prompt, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(tc.want, res.Logits); d != 0 {
			t.Errorf("restored serve differs by %v", d)
		}
		res.Close()
	}
}

// readWindowLocked runs resolvePart's blob read by hand around
// during, which stands for whatever another goroutine does while key's
// blob is read off-lock, and returns what the install half makes of the
// loaded states. Called and returning with c.mu held.
func readWindowLocked(t *testing.T, c *Cache, key string, during func()) (*kvcache.Cache, servePart, error) {
	t.Helper()
	em := c.store.modules[key]
	if em == nil || em.state != stateDisk {
		t.Fatalf("%s is not on disk", key)
	}
	entry := c.store.disk.index[key]
	c.mu.Unlock()
	kv, _, err := c.store.disk.readBlobRetry(entry)
	if err != nil {
		c.mu.Lock()
		t.Fatal(err)
	}
	loadErr := c.checkBlob(key, kv, em.rows())
	during()
	c.mu.Lock()
	part, err := c.store.install(servePart{key: key, pending: em}, produced{kv: kv, err: loadErr})
	return kv, part, err
}

// TestTierReadWindowSchemaReplaced: a declared module orphaned by a
// schema replacement while its blob is read off-lock serves the loaded
// states as a read-through. They are still the states the serve planned
// with, but the module is no longer registered, so it must not claim
// pool space under a key the replacement now owns.
func TestTierReadWindowSchemaReplaced(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(m, WithDiskTier(t.TempDir(), CodecFP32))
	mustRegister(t, c, travelSchema)
	const key = "travel/tokyo"

	c.mu.Lock()
	evictKeyLocked(t, &c.store, key)
	old := c.store.modules[key]
	var before Stats
	var used int64
	kv, part, err := readWindowLocked(t, c, key, func() {
		mustRegister(t, c, travelSchema)
		c.mu.Lock()
		before, used = c.stats, c.store.device.used
		c.mu.Unlock()
	})
	if err != nil {
		c.mu.Unlock()
		t.Fatal(err)
	}
	got, gotUsed := c.stats, c.store.device.used
	fresh := c.store.modules[key]
	c.mu.Unlock()
	if part.em != nil || part.kv != kv {
		t.Fatalf("orphaned module not served as a read-through of the loaded states: %+v", part)
	}
	if old.state != stateDisk || old.pins != 0 || gotUsed != used {
		t.Errorf("orphan installed: state %d, pins %d, pool used %d -> %d", old.state, old.pins, used, gotUsed)
	}
	if got.DiskHits != before.DiskHits+1 || got.ModulesReused != before.ModulesReused+1 {
		t.Errorf("stats before %+v, after %+v: want one disk hit and one reuse", before, got)
	}
	for l := range kv.K {
		n := kv.Len() * kv.KVDim
		if d := max(tensor.MaxAbsDiff(kv.K[l][:n], fresh.KV.K[l][:n]), tensor.MaxAbsDiff(kv.V[l][:n], fresh.KV.V[l][:n])); d != 0 {
			t.Fatalf("layer %d: loaded states differ from a fresh encoding by %v", l, d)
		}
	}
	assertNoPins(t, c)
}

// TestTierReadWindowSchemaReplacedBlobGone: a schema replaced, with a
// new stream for one of its modules, while a serve waits on that module's
// blob also deletes the blob, so the read fails. The serve still
// completes, bit-identical to a cold serve, by encoding the orphaned
// module for itself alone: it neither collides with the replacement's
// registration of the same key nor counts a load error for a blob that
// was removed on purpose.
func TestTierReadWindowSchemaReplacedBlobGone(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, travelSchema)
	cold, err := probe.Serve(context.Background(), declaredTierPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cold.Close()
	// tokyo's new text changes its stream, so its blob cannot pass to
	// the replacement (tierStore.dropSchema).
	replacement := strings.Replace(travelSchema, "superb food", "superb fresh food", 1)
	fresh := NewCache(m)
	mustRegister(t, fresh, replacement)

	inj := faultinject.New(8)
	c := NewCache(m, WithDiskTier(t.TempDir(), CodecFP32), WithFaultInjection(inj))
	mustRegister(t, c, travelSchema)
	c.mu.Lock()
	evictKeyLocked(t, &c.store, "travel/tokyo")
	c.mu.Unlock()
	inj.Set(FaultPointDiskRead, faultinject.Rule{Delay: 200 * time.Millisecond, Times: 1})
	type served struct {
		res *ServeResult
		err error
	}
	done := make(chan served, 1)
	go func() {
		res, err := c.Serve(context.Background(), declaredTierPrompt, ServeOpts{})
		done <- served{res, err}
	}()
	for inj.Fired(FaultPointDiskRead) == 0 {
		time.Sleep(time.Millisecond)
	}
	mustRegister(t, c, replacement) // while the serve sleeps before its read
	got := <-done
	if got.err != nil {
		t.Fatalf("serve across the schema replacement failed: %v", got.err)
	}
	got.res.Close()
	if d := tensor.MaxAbsDiff(cold.Logits, got.res.Logits); d != 0 {
		t.Errorf("logits differ from a cold serve by %v", d)
	}
	if st := c.Stats(); st.DiskLoadErrors != 0 || st.ModulesReloaded != 1 {
		t.Errorf("want one transient re-encode and no load error: %+v", st)
	}
	if c.Snapshot().PoolBytes != fresh.Snapshot().PoolBytes {
		t.Errorf("pool holds %d bytes, a fresh registration %d", c.Snapshot().PoolBytes, fresh.Snapshot().PoolBytes)
	}
	assertNoPins(t, c)
}

// scaffoldChurnSchema: three scaffolds over disjoint pairs of modules and
// nothing else, so every prompt of TestScaffoldTierChurn — one pair, or
// one module alone — matches the full-attention baseline bit for bit.
const scaffoldChurnSchema = `<schema name="sc">
  <module name="m0">alpha beta gamma delta</module>
  <module name="m1">one two three four</module>
  <module name="m2">red green blue cyan</module>
  <module name="m3">north south east west</module>
  <module name="m4">salt pepper thyme basil</module>
  <module name="m5">oak pine elm ash</module>
  <scaffold name="s01" modules="m0 m1"/>
  <scaffold name="s23" modules="m2 m3"/>
  <scaffold name="s45" modules="m4 m5"/>
</schema>`

// TestScaffoldTierChurn serves scaffold pairs through a device pool and
// a host pool one scaffold wide each, over a disk tier (fp32 or int8) or
// none. Scaffolds rank, demote, spill and reload (or, with no disk
// tier, drop and re-encode) like any module: each one must go through all
// three, every serve must match the baseline bit for bit whatever the
// disk codec (scaffolds spill fp32), and at quiescence the pools hold
// exactly the resident and demoted modules' bytes, with no accounting
// error and no pin left behind.
func TestScaffoldTierChurn(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 91))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, scaffoldChurnSchema)
	scaffoldBytes := probe.store.modules["sc/"+scaffoldPrefix+"s01"].size()
	names := []string{"s01", "s23", "s45"}
	pair := func(i int) string {
		return fmt.Sprintf(`<prompt schema="sc"><m%d/><m%d/>Relate them.</prompt>`, 2*i, 2*i+1)
	}
	baseline := make([][]float32, len(names))
	for i := range names {
		res, err := probe.BaselineServe(context.Background(), pair(i))
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res.Logits
	}
	// Registration leaves s45 resident and s01 and s23 past the host.
	// Under LRU this order cycles every scaffold from the device into the
	// host, past the host to make room for a hotter one, and back from
	// below it.
	schedule := []int{0, 2, 1, 0, 2, 1, 0, 2, 1, 0}

	for _, tc := range []struct {
		name  string
		disk  bool
		codec Codec
	}{{"fp32", true, CodecFP32}, {"int8", true, CodecInt8}, {"host-only", false, CodecFP32}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithDeviceCapacity(scaffoldBytes)}
			if tc.disk {
				opts = append(opts, WithDiskTier(t.TempDir(), tc.codec))
			}
			c := NewCache(m, opts...)
			// The host tier joins after the schema registers, so the
			// modules evicted by registration go past it and the host
			// starts empty for the scaffolds.
			mustRegister(t, c, scaffoldChurnSchema)
			c.store.host = newLedger(scaffoldBytes)
			states := func() []moduleState {
				c.mu.Lock()
				defer c.mu.Unlock()
				var out []moduleState
				for _, name := range names {
					out = append(out, c.store.modules["sc/"+scaffoldPrefix+name].state)
				}
				return out
			}
			var demoted, evicted, back [3]bool
			for step, i := range schedule {
				before := states()
				res, err := c.Serve(context.Background(), pair(i), ServeOpts{})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				res.Close()
				if len(res.Scaffolds) != 1 || !sameBits(baseline[i], res.Logits) {
					t.Errorf("step %d: scaffolds %v, logits differ from the baseline by %v",
						step, res.Scaffolds, tensor.MaxAbsDiff(baseline[i], res.Logits))
				}
				if evicted[i] && (before[i] == stateDisk || before[i] == stateDropped) {
					back[i] = true
				}
				for j, st := range states() {
					switch {
					case st == stateDemoted:
						demoted[j] = true
					case demoted[j] && (st == stateDisk || st == stateDropped):
						evicted[j] = true
					}
				}
			}
			for i, name := range names {
				if !back[i] {
					t.Errorf("%s: demoted %v, then evicted past the host %v, then served back %v", name, demoted[i], evicted[i], back[i])
				}
			}
			s := c.Snapshot()
			if s.Tiers.TierAccountErrors != 0 {
				t.Fatalf("tier_account_errors = %d", s.Tiers.TierAccountErrors)
			}
			c.mu.Lock()
			device, hostBytes := tierLedgerLocked(c)
			c.mu.Unlock()
			if s.Tiers.DeviceBytes != device || s.Tiers.HostBytes != hostBytes {
				t.Fatalf("gauges device %d host %d, inventory holds device %d host %d",
					s.Tiers.DeviceBytes, s.Tiers.HostBytes, device, hostBytes)
			}
			assertNoPins(t, c)
		})
	}
}

// TestHostTierTakesEveryDeviceVictim serves scaffold pairs through a device
// and a host tier one scaffold wide each, over an fp32 disk tier, with the
// host present during registration. Registration demotes its
// first evictions (the member modules) into the host; a full host must
// then send its oldest-demoted occupant to disk rather than turn away a
// hotter victim, so every scaffold evicted from the device goes to the
// host. Every serve matches the baseline bit for bit, and at quiescence
// the ledger is exact, with no pin.
func TestHostTierTakesEveryDeviceVictim(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 91))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, scaffoldChurnSchema)
	scaffoldBytes := probe.store.modules["sc/"+scaffoldPrefix+"s01"].size()
	pair := func(i int) string {
		return fmt.Sprintf(`<prompt schema="sc"><m%d/><m%d/>Relate them.</prompt>`, 2*i, 2*i+1)
	}
	names := []string{"s01", "s23", "s45"}
	baseline := make([][]float32, len(names))
	for i := range names {
		res, err := probe.BaselineServe(context.Background(), pair(i))
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res.Logits
	}

	c := NewCache(m,
		WithDeviceCapacity(scaffoldBytes),
		WithHostTier(scaffoldBytes),
		WithDiskTier(t.TempDir(), CodecFP32))
	mustRegister(t, c, scaffoldChurnSchema)
	states := func() []moduleState {
		c.mu.Lock()
		defer c.mu.Unlock()
		var out []moduleState
		for _, name := range names {
			out = append(out, c.store.modules["sc/"+scaffoldPrefix+name].state)
		}
		return out
	}
	demotions := 0
	for step, i := range []int{0, 1, 2, 0, 2, 1, 1, 0} {
		before := states()
		res, err := c.Serve(context.Background(), pair(i), ServeOpts{})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		res.Close()
		if len(res.Scaffolds) != 1 || !sameBits(baseline[i], res.Logits) {
			t.Errorf("step %d: scaffolds %v, logits differ from the baseline by %v",
				step, res.Scaffolds, tensor.MaxAbsDiff(baseline[i], res.Logits))
		}
		for j, st := range states() {
			if before[j] != stateResident || st == stateResident {
				continue
			}
			if st != stateDemoted {
				t.Errorf("step %d: %s left the device for state %d, not the host", step, names[j], st)
			}
			demotions++
		}
	}
	if demotions == 0 {
		t.Fatal("no scaffold left the device")
	}
	s := c.Snapshot()
	if s.Tiers.TierAccountErrors != 0 {
		t.Fatalf("tier_account_errors = %d", s.Tiers.TierAccountErrors)
	}
	c.mu.Lock()
	device, hostBytes := tierLedgerLocked(c)
	c.mu.Unlock()
	if s.Tiers.DeviceBytes != device || s.Tiers.HostBytes != hostBytes {
		t.Fatalf("gauges device %d host %d, inventory holds device %d host %d",
			s.Tiers.DeviceBytes, s.Tiers.HostBytes, device, hostBytes)
	}
	assertNoPins(t, c)
}

// TestHostTierSpillsOldestDemoted: a host tier two modules wide, full,
// makes room for a third demotion by spilling the module demoted first,
// and keeps the later one; the promoted module vacates its room.
func TestHostTierSpillsOldestDemoted(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 733))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, churnSchema)
	size := probe.store.modules["churn/m0"].size()
	c := NewCache(m,
		WithHostTier(2*size),
		WithDiskTier(t.TempDir(), CodecFP32))
	mustRegister(t, c, churnSchema)
	c.mu.Lock()
	defer c.mu.Unlock()
	state := func(mod string) moduleState { return c.store.modules["churn/"+mod].state }
	for _, mod := range []string{"m0", "m1", "m2"} {
		evictKeyLocked(t, &c.store, "churn/"+mod)
	}
	if state("m0") != stateDisk || state("m1") != stateDemoted || state("m2") != stateDemoted {
		t.Fatalf("after demoting m0, m1, m2 into a two-wide host: states %d %d %d, want disk, demoted, demoted",
			state("m0"), state("m1"), state("m2"))
	}
	part, err := c.store.acquire("churn/m1")
	if err != nil {
		t.Fatal(err)
	}
	c.store.release([]*EncodedModule{part.em})
	evictKeyLocked(t, &c.store, "churn/m3")
	if state("m1") != stateResident || state("m2") != stateDemoted || state("m3") != stateDemoted {
		t.Fatalf("after promoting m1 and demoting m3: states %d %d %d, want resident, demoted, demoted",
			state("m1"), state("m2"), state("m3"))
	}
	if c.store.host.used != 2*size {
		t.Fatalf("host holds %d bytes, want %d", c.store.host.used, 2*size)
	}
}

// TestDeviceEvictsLeastRecentlyUsed: under a squeeze, a module a serve
// used outlives one placed after it that nothing served — the device
// evicts the least recently used module, not the first placed.
func TestDeviceEvictsLeastRecentlyUsed(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 735))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, churnSchema)
	size := probe.store.modules["churn/m0"].size()
	c := NewCache(m, WithDeviceCapacity(6*size))
	mustRegister(t, c, churnSchema) // m0 placed first, m5 last
	res, err := c.Serve(context.Background(), `<prompt schema="churn"><m0/>Go.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	// One more module of m0's stream, so of its size: one must go.
	mustRegister(t, c, `<schema name="more"><module name="x">alpha beta gamma delta epsilon zeta</module></schema>`)
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, em := range c.store.modules {
		if resident := em.state == stateResident; resident != (key != "churn/m1") {
			t.Errorf("%s resident %v; want only churn/m1, the least recently used, evicted", key, resident)
		}
	}
}

// TestOpenDirPoolSmallerThanScaffold: a snapshot opens into a device
// pool too small for its scaffold — restoring reads no blob and reserves
// nothing — and the scaffold still serves, read through from its blob,
// bit-identical to the cache that saved it.
func TestOpenDirPoolSmallerThanScaffold(t *testing.T) {
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
	scaffoldBytes := orig.store.modules["s/"+scaffoldPrefix+"ab"].size()

	c, err := OpenDir(m, dir, WithDeviceCapacity(scaffoldBytes-1))
	if err != nil {
		t.Fatalf("OpenDir with a pool smaller than the scaffold: %v", err)
	}
	got, err := c.Serve(context.Background(), scaffoldPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	if len(got.Scaffolds) != 1 || !sameBits(want.Logits, got.Logits) {
		t.Fatalf("scaffolds %v, logits differ by %v", got.Scaffolds, tensor.MaxAbsDiff(want.Logits, got.Logits))
	}
	if st := c.Stats(); st.ModulesEncoded != 0 || st.DiskHits != 1 {
		t.Fatalf("want the scaffold read through from disk, nothing encoded: %+v", st)
	}
	assertNoPins(t, c)
}

// TestPromotionThatCannotFitEvictsNothing: a demoted module whose
// promotion cannot fit the device pool — every module but one small
// bystander pinned, the rest of the pool filled — is read through from
// the host, and the bystander stays resident: a make-room that cannot
// succeed evicts nothing.
func TestPromotionThatCannotFitEvictsNothing(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 77))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(m,
		WithDeviceCapacity(tierPoolBytes),
		WithHostTier(0))
	mustRegister(t, c, travelSchema)
	mustRegister(t, c, `<schema name="tiny"><module name="x">one two</module></schema>`)

	c.mu.Lock()
	tokyo, tiny := c.store.modules["travel/tokyo"], c.store.modules["tiny/x"]
	if tokyo.size() != 12288 || tiny.size() != 2048 {
		c.mu.Unlock()
		t.Fatalf("tokyo takes %d bytes and tiny/x %d; the trace needs 12288 and 2048", tokyo.size(), tiny.size())
	}
	evictKeyLocked(t, &c.store, "travel/tokyo")
	var held []*EncodedModule
	for _, em := range otherModulesLocked(&c.store, "tiny/x") {
		if em != tokyo {
			em.pins++
			held = append(held, em)
		}
	}
	c.store.device.capacity = c.store.device.used // full
	before := c.stats
	c.mu.Unlock()

	res, err := c.Serve(context.Background(), declaredTierPrompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	c.mu.Lock()
	c.store.release(held)
	after := c.stats
	tokyoState, tinyState := tokyo.state, tiny.state
	c.mu.Unlock()
	if after.ModulesEvicted != before.ModulesEvicted || after.ModulesDemoted != before.ModulesDemoted {
		t.Errorf("evicted %d and demoted %d modules for a promotion that cannot fit",
			after.ModulesEvicted-before.ModulesEvicted, after.ModulesDemoted-before.ModulesDemoted)
	}
	if tokyoState != stateDemoted || tinyState != stateResident {
		t.Errorf("tokyo in state %d (want demoted, read through), tiny/x in state %d (want resident)", tokyoState, tinyState)
	}
	if got := tierDeltaOf(before, after); got != (tierDelta{reused: 3}) {
		t.Errorf("stats delta = %+v, want three reuses", got)
	}
	assertNoPins(t, c)
}
