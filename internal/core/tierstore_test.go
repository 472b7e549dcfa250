package core

import (
	"errors"
	"flag"
	"fmt"
	"maps"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/tokenizer"
)

// tierDepth bounds the op sequences TestTierStoreExhaustive enumerates.
// Tier-1 runs the default; CI runs a deeper pass with -tierdepth.
var tierDepth = flag.Int("tierdepth", 2, "TestTierStoreExhaustive enumerates every op sequence up to this depth")

// The checker's world is small enough to enumerate: two schemas of 3–4
// modules on a one-layer model, one of them a scaffold, in
// device and host pools one or two units (two token rows) wide, with the
// disk tier on and off. Schema a's scaffold co-encodes m0 and m1, one row
// each, so it takes a unit like m2 and every module of b.
const (
	tsSchemaA = `<schema name="a"><module name="m0">alpha</module><module name="m1">beta</module>` +
		`<module name="m2">red green</module><scaffold name="s01" modules="m0 m1"/></schema>`
	// tsSchemaAWide replaces m2 with a two-unit module: it fits a
	// two-unit device only with nothing else pinned.
	tsSchemaAWide = `<schema name="a"><module name="m0">alpha</module><module name="m1">beta</module>` +
		`<module name="m2">red green blue cyan</module><scaffold name="s01" modules="m0 m1"/></schema>`
	tsSchemaB = `<schema name="b"><module name="x">one two</module><module name="y">three four</module>` +
		`<module name="z">five six</module></schema>`
)

// tsPrompts are the serves the checker plans: a's scaffold, two of a's
// modules (a working set wider than a one-unit device), and two of b's
// modules.
var tsPrompts = []string{
	`<prompt schema="a"><m0/><m1/>Go.</prompt>`,
	`<prompt schema="a"><m1/><m2/>Go.</prompt>`,
	`<prompt schema="b"><x/><y/>Go.</prompt>`,
}

// tsRowBytes is one cached token row of tsModel: K and V, one layer,
// KVDim 4, fp32.
const tsRowBytes = 2 * 1 * 4 * 4

func tsModel(t *testing.T) *model.Model {
	m, err := model.New(model.Config{
		Name: "tier-checker", VocabSize: tokenizer.WordBase + 64,
		Dim: 8, NLayers: 1, NHeads: 2, NKVHeads: 1, FFNDim: 8,
		MaxSeq: 64, PosEnc: model.RoPE, Norm: model.RMSNorm, Act: model.SwiGLU,
		RopeTheta: 10000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tsConfig is one pool shape: widths in units of two rows, host 0 for
// none.
type tsConfig struct {
	device, host int
	disk         bool
}

func (c tsConfig) String() string {
	return fmt.Sprintf("device%d/host%d/disk=%v", c.device, c.host, c.disk)
}

// tsFixture is what every sequence of one test shares: the model, the
// compiled schemas and prompts, and the encode memo.
type tsFixture struct {
	m       *model.Model
	schemas map[string]*schemaEntry // compiled, by source
	prompts []*pml.Prompt
	states  map[string]*kvcache.Cache // encode memo, by module key and stream
}

func newTSFixture(t *testing.T, m *model.Model) *tsFixture {
	f := &tsFixture{m: m, schemas: map[string]*schemaEntry{}, states: map[string]*kvcache.Cache{}}
	c := NewCache(f.m)
	for _, src := range []string{tsSchemaA, tsSchemaAWide, tsSchemaB} {
		schema, err := pml.ParseSchema(src)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := pml.Compile(schema, c.tok, c.tmpl)
		if err != nil {
			t.Fatal(err)
		}
		f.schemas[src], _ = newSchemaEntry(schema, layout, src)
	}
	for _, p := range tsPrompts {
		pr, err := pml.ParsePrompt(p)
		if err != nil {
			t.Fatal(err)
		}
		f.prompts = append(f.prompts, pr)
	}
	return f
}

// tsServe is one serve in flight, planned and resolved a phase per step
// like ServeParsed and resolvePart.
type tsServe struct {
	prompt int
	plan   *servePlan
	// want holds, per part, the states it must serve: the encode's when
	// the serve planned.
	want []*kvcache.Cache
	// phase is the next step of the part being resolved (next): 0 read
	// its blob, 1 install the read, 2 re-encode and install.
	phase int
	read  produced
}

// next is the index of the serve's last pending part.
func (s *tsServe) next() int {
	i := len(s.plan.parts) - 1
	for s.plan.parts[i].pending == nil {
		i--
	}
	return i
}

func (s *tsServe) resolved() bool {
	for _, p := range s.plan.parts {
		if p.pending != nil {
			return false
		}
	}
	return true
}

// tsWorld is one sequence's state: a cache built as NewCache builds it,
// driven through the tier store by test producers — an encode that runs
// the model but can be made to fail, and blob reads that fail on demand
// through the fault injector.
type tsWorld struct {
	f      *tsFixture
	cfg    tsConfig
	dir    string
	inj    *faultinject.Injector
	c      *Cache
	serves []*tsServe
	// want is the states a serve of each registered key must see.
	want map[string]*kvcache.Cache
	// failEncode makes the next encode fail. corrupt counts the blob reads
	// made to find corruption, the one read failure that may count a load
	// error: a transient one is always retried away.
	failEncode bool
	corrupt    int
	// snap is a SaveAll cut awaiting its write (nil for none), and
	// snapWant the want map at that cut.
	snap       *snapshotCut
	snapWant   map[string]*kvcache.Cache
	violations []string
}

var errTSEncode = errors.New("checker: injected encode failure")

func (w *tsWorld) opts() []Option {
	unit := int64(2 * tsRowBytes)
	opts := []Option{
		WithDeviceCapacity(int64(w.cfg.device) * unit),
		WithFaultInjection(w.inj),
	}
	if w.cfg.host > 0 {
		opts = append(opts, WithHostTier(int64(w.cfg.host)*unit))
	}
	if w.cfg.disk {
		opts = append(opts, WithDiskTier(filepath.Join(w.dir, "disk"), CodecFP32))
	}
	return opts
}

func (w *tsWorld) fail(format string, args ...any) {
	w.violations = append(w.violations, fmt.Sprintf(format, args...))
}

// encode is the test's encode producer: the model's encoding prefill,
// memoized, failing when armed.
func (w *tsWorld) encode(em *EncodedModule) (*kvcache.Cache, error) {
	if w.failEncode {
		w.failEncode = false
		return nil, errTSEncode
	}
	memo := fmt.Sprint(em.key(), em.Toks, em.Pos)
	if kv, ok := w.f.states[memo]; ok {
		return kv, nil
	}
	kv, err := w.c.encodeStates(em)
	if err != nil {
		return nil, err
	}
	w.f.states[memo] = kv
	return kv, nil
}

// register encodes a schema off the lock and installs it as
// RegisterSchema does. A failed replacement must leave the old schema
// registered, every module in place.
func (w *tsWorld) register(src string) {
	c := w.c
	compiled := w.f.schemas[src]
	entry, ems := newSchemaEntry(compiled.schema, compiled.layout, src)
	name := entry.schema.Name
	kvs := make([]*kvcache.Cache, len(ems))
	var err error
	for i, em := range ems {
		if kvs[i], err = w.encode(em); err != nil {
			break
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.schemas[name]
	before := map[string]*EncodedModule{}
	for key, em := range c.store.modules {
		if em.Schema == name {
			before[key] = em
		}
	}
	if err == nil {
		err = c.installSchemaLocked(entry, ems, kvs)
	}
	if err == nil {
		for key := range w.want {
			if strings.HasPrefix(key, name+"/") {
				delete(w.want, key)
			}
		}
		for i, em := range ems {
			w.want[em.key()] = kvs[i]
		}
		return
	}
	if !errors.Is(err, errTSEncode) && !errors.Is(err, ErrCapacity) {
		w.fail("register %s: %v", name, err)
	}
	if c.schemas[name] != old {
		w.fail("failed replacement of %s changed the registry", name)
	}
	for key, em := range before {
		if c.store.modules[key] != em {
			w.fail("failed replacement of %s removed %s", name, key)
		}
	}
}

// plan plans a serve under the lock as ServeParsed does.
func (w *tsWorld) plan(i int) {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	plan, err := c.planServeLocked(w.f.prompts[i], ServeOpts{})
	if err != nil {
		w.fail("plan %d: %v", i, err)
		return
	}
	s := &tsServe{prompt: i, plan: plan}
	for _, p := range plan.parts {
		s.want = append(s.want, w.want[p.key])
	}
	w.serves = append(w.serves, s)
}

// step runs a serve's last pending part up to the next point where resolvePart leaves the lock with work
// in flight: a blob read, then its install, then a re-encode and its
// install. Other ops run between steps, inside those windows.
func (w *tsWorld) step(s *tsServe) {
	c := w.c
	i := s.next()
	p := s.plan.parts[i]
	var part servePart
	var err error
	switch s.phase {
	case 0:
		c.mu.Lock()
		_, blob := c.store.blob(p)
		c.mu.Unlock()
		if s.read = c.readPart(p); blob {
			s.phase = 1
			return
		}
		fallthrough
	case 1:
		c.mu.Lock()
		part, err = c.store.install(p, s.read)
		c.mu.Unlock()
	case 2:
		var kv *kvcache.Cache
		if kv, err = w.encode(p.pending); err == nil {
			c.mu.Lock()
			part, err = c.store.install(p, produced{kv: kv, encoded: true})
			c.mu.Unlock()
		}
	}
	switch {
	case err != nil:
		if !errors.Is(err, errTSEncode) {
			w.fail("resolve %s: %v", p.key, err)
		}
		c.unpinModules(s.plan.pinned)
		w.drop(s)
	case part.pending != nil:
		s.phase = 2
	default:
		s.plan.parts[i] = part
		if part.em != nil {
			s.plan.pinned = append(s.plan.pinned, part.em)
		}
		s.phase = 0
	}
}

// close checks a resolved serve's states against the encode's, bit for
// bit, and releases its pins.
func (w *tsWorld) close(s *tsServe) {
	for i, p := range s.plan.parts {
		if !sameStates(p.states(), s.want[i]) {
			w.fail("serve %d part %s: states differ from the encode's", s.prompt, p.key)
		}
	}
	w.c.unpinModules(s.plan.pinned)
	w.drop(s)
}

func (w *tsWorld) drop(s *tsServe) {
	for i, o := range w.serves {
		if o == s {
			w.serves = append(w.serves[:i], w.serves[i+1:]...)
			return
		}
	}
}

func sameStates(a, b *kvcache.Cache) bool {
	if a == nil || b == nil || a.Len() != b.Len() || a.NLayers != b.NLayers {
		return false
	}
	n := a.Len() * a.KVDim
	for l := range a.K {
		if !sameBits(a.K[l][:n], b.K[l][:n]) || !sameBits(a.V[l][:n], b.V[l][:n]) {
			return false
		}
	}
	return true
}

// cut runs SaveAll's cut: into the disk tier's own directory when there
// is one, so disk-resident modules keep their blobs, and into another
// otherwise. The cut's write is a separate op (write), so other ops run
// between the two.
func (w *tsWorld) cut() {
	dir := filepath.Join(w.dir, "snap")
	if w.cfg.disk {
		dir = w.c.store.disk.dir
	}
	w.c.mu.Lock()
	cut, err := w.c.cutLocked(dir)
	w.c.mu.Unlock()
	if err != nil {
		w.fail("SaveAll's cut: %v", err)
		return
	}
	w.snap = cut
	w.snapWant = maps.Clone(w.want)
}

// write runs the pending cut's write. With no serve open and the disk
// tier on, the snapshot then restarts the world (OpenDir), and a serve
// of each restored key must see the states it had at the cut.
func (w *tsWorld) write() {
	cut := w.snap
	w.snap = nil
	named, err := w.c.writeSnapshot(cut)
	w.c.mu.Lock()
	w.c.snapshotDoneLocked(cut, named, err)
	w.c.mu.Unlock()
	if err != nil {
		w.fail("SaveAll's write: %v", err)
		return
	}
	if len(w.serves) > 0 || !w.cfg.disk {
		return
	}
	c, err := OpenDir(w.f.m, cut.tier.dir, w.opts()...)
	if err != nil {
		w.fail("OpenDir: %v", err)
		return
	}
	w.c, w.want = c, w.snapWant
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range w.want {
		if em := c.store.modules[key]; em == nil || em.state != stateDisk {
			w.fail("restored %s: %+v", key, em)
		}
	}
}

// check asserts the store's invariants after a step: each module is in
// exactly one state, matching its pool and index membership; the pool
// gauges equal the modules' bytes; pins equal the open serves' and are
// never negative; only a corrupt read counts a load error. evicted and
// entered are the step's evictions and the modules
// that entered the device pool in it: evictions must buy a placement,
// and with a host wide enough for every module each victim demotes.
func (w *tsWorld) check(evicted, demoted int, entered bool) {
	c := w.c
	s := &c.store
	held := map[*EncodedModule]int{}
	for _, sv := range w.serves {
		for _, em := range sv.plan.pinned {
			held[em]++
		}
	}
	var device, host, disk int64
	nResident, nDemoted := 0, 0
	for key, em := range s.modules {
		if em.key() != key {
			w.fail("%s indexed under %s", em.key(), key)
		}
		onDevice, onHost := s.device.members[key] != nil, s.host != nil && s.host.members[key] != nil
		entry, indexed := diskEntry{}, false
		if s.disk != nil {
			entry, indexed = s.disk.index[key]
		}
		var ok bool
		switch em.state {
		case stateResident:
			ok = onDevice && !onHost && em.KV != nil
			device += em.size()
			nResident++
		case stateDemoted:
			ok = onHost && !onDevice && em.KV != nil
			host += em.size()
			nDemoted++
		case stateDisk:
			ok = indexed && !onDevice && !onHost && em.KV == nil && entry.tokens == em.rows()
		case stateDropped:
			ok = !indexed && !onDevice && !onHost && em.KV == nil
		}
		if !ok {
			w.fail("%s in state %d: device %v host %v indexed %v states %v", key, em.state, onDevice, onHost, indexed, em.KV != nil)
		}
		if em.pins != held[em] {
			w.fail("%s holds %d pins, open serves %d", key, em.pins, held[em])
		}
		delete(held, em)
	}
	for em, n := range held {
		if em.pins != n {
			w.fail("removed %s holds %d pins, open serves %d", em.key(), em.pins, n)
		}
	}
	if s.device.used != device || len(s.device.members) != nResident || !s.device.fits(0) {
		w.fail("device ledger holds %d members, %d of %d bytes, for %d resident of %d bytes",
			len(s.device.members), s.device.used, s.device.capacity, nResident, device)
	}
	if s.host != nil && (s.host.used != host || len(s.host.members) != nDemoted || !s.host.fits(0)) {
		w.fail("host ledger holds %d members, %d of %d bytes, for %d demoted of %d bytes",
			len(s.host.members), s.host.used, s.host.capacity, nDemoted, host)
	}
	if s.disk != nil {
		for key, entry := range s.disk.index {
			if s.modules[key] == nil {
				w.fail("disk index holds %s, which is no module", key)
			}
			disk += entry.bytes
		}
		if s.disk.bytes != disk {
			w.fail("disk tier holds %d bytes, index %d", s.disk.bytes, disk)
		}
	}
	if c.stats.DiskLoadErrors > w.corrupt {
		w.fail("%d disk load errors from %d corrupt reads", c.stats.DiskLoadErrors, w.corrupt)
	}
	if evicted > 0 && !entered {
		w.fail("%d evictions placed nothing", evicted)
	}
	if s.host != nil && s.host.capacity >= 2*2*tsRowBytes && demoted != evicted {
		w.fail("%d evictions, %d demotions into a host wide enough for every module", evicted, demoted)
	}
}

// TestLedgerAddRemove: a ledger's bytes are its members' sizes.
func TestLedgerAddRemove(t *testing.T) {
	l := newLedger(100)
	l.add("a", 60)
	l.add("b", 30)
	l.remove("b")
	l.remove("b") // not a member: no change
	if l.used != 60 || l.members["b"] != nil || l.members["a"] == nil || len(l.members) != 1 {
		t.Fatalf("after removing b: used %d, members %d", l.used, len(l.members))
	}
}

// TestLedgerFits: a ledger fits what its capacity leaves room for.
func TestLedgerFits(t *testing.T) {
	l := newLedger(100)
	l.add("a", 60)
	if !l.fits(40) || l.fits(41) {
		t.Fatalf("60 of 100 bytes used: fits(40) %v, fits(41) %v", l.fits(40), l.fits(41))
	}
}

// TestLedgerUncapped: a ledger of capacity 0 fits anything.
func TestLedgerUncapped(t *testing.T) {
	l := newLedger(0)
	l.add("big", 1<<50)
	if !l.fits(1 << 61) {
		t.Fatal("an uncapped ledger refused bytes")
	}
}

// TestLedgerOldestSkips: a ledger ranks its members least recently added
// or touched first, skipping what the caller refuses without reordering.
func TestLedgerOldestSkips(t *testing.T) {
	l := newLedger(0)
	l.add("a", 1)
	l.add("b", 2)
	l.add("c", 3)
	l.touch("a")
	if key, _ := l.oldest(nil); key != "b" {
		t.Fatalf("oldest after touching a = %q, want b", key)
	}
	if key, _ := l.oldest(func(k string) bool { return k == "b" }); key != "c" {
		t.Fatalf("oldest but b = %q, want c", key)
	}
	if _, ok := l.oldest(func(string) bool { return true }); ok {
		t.Fatal("every member skipped, yet a victim came back")
	}
	if key, _ := l.oldest(nil); key != "b" {
		t.Fatalf("oldest after the skips = %q, want b", key)
	}
}

// tsOp is one step the checker can take, when ok.
type tsOp struct {
	name string
	ok   func(*tsWorld) bool
	run  func(*tsWorld)
}

func tsOps() []tsOp {
	always := func(*tsWorld) bool { return true }
	ops := []tsOp{
		{"replace a", always, func(w *tsWorld) { w.register(tsSchemaA) }},
		{"replace a wide", always, func(w *tsWorld) { w.register(tsSchemaAWide) }},
		{"replace a, encode fails", always, func(w *tsWorld) { w.failEncode = true; w.register(tsSchemaA) }},
		{"replace b", always, func(w *tsWorld) { w.register(tsSchemaB) }},
		{"cut", func(w *tsWorld) bool { return w.snap == nil }, (*tsWorld).cut},
		{"write", func(w *tsWorld) bool { return w.snap != nil }, (*tsWorld).write},
	}
	for i := range tsPrompts {
		ops = append(ops, tsOp{fmt.Sprintf("plan P%d", i),
			func(w *tsWorld) bool { return len(w.serves) < 2 },
			func(w *tsWorld) { w.plan(i) }})
	}
	for k := range 2 {
		// The faulty steps apply where a blob read is next.
		reading := func(w *tsWorld) bool {
			if k >= len(w.serves) || w.serves[k].resolved() || w.serves[k].phase != 0 {
				return false
			}
			s := w.serves[k]
			_, blob := w.c.store.blob(s.plan.parts[s.next()])
			return blob
		}
		ops = append(ops,
			tsOp{fmt.Sprintf("step S%d", k),
				func(w *tsWorld) bool { return k < len(w.serves) && !w.serves[k].resolved() },
				func(w *tsWorld) { w.step(w.serves[k]) }},
			tsOp{fmt.Sprintf("step S%d, read fails once", k), reading, func(w *tsWorld) {
				w.faultyStep(w.serves[k], errors.New("checker: transient read error"))
			}},
			tsOp{fmt.Sprintf("step S%d, blob corrupt", k), reading, func(w *tsWorld) {
				w.corrupt++
				w.faultyStep(w.serves[k], faultinject.ErrCorrupt)
			}},
			tsOp{fmt.Sprintf("close S%d", k),
				func(w *tsWorld) bool { return k < len(w.serves) && w.serves[k].resolved() },
				func(w *tsWorld) { w.close(w.serves[k]) }})
	}
	return ops
}

// faultyStep runs a serve's blob-read phase with the read's first attempt
// failing with err. The retry budget absorbs one transient failure.
func (w *tsWorld) faultyStep(s *tsServe, err error) {
	w.inj.Set(FaultPointDiskRead, faultinject.Rule{Err: err, Times: 1})
	w.step(s)
	if s.read.err != nil && !errors.Is(s.read.err, errCorruptBlob) {
		w.fail("one transient read failure was not retried: %v", s.read.err)
	}
	w.inj.Clear(FaultPointDiskRead)
}

// run replays one op sequence on a fresh world, checking after every
// step; it returns the first violations found, or nil.
func (f *tsFixture) run(cfg tsConfig, dir string, seq []int, ops []tsOp) (violations []string, ran bool) {
	w := &tsWorld{f: f, cfg: cfg, dir: dir, inj: faultinject.New(1), want: map[string]*kvcache.Cache{}}
	// Every sequence starts from both schemas registered, b's modules
	// pushed below the device by a's registration.
	w.c = NewCache(f.m, w.opts()...)
	w.register(tsSchemaB)
	w.register(tsSchemaA)
	w.c.mu.Lock()
	w.check(0, 0, true)
	w.c.mu.Unlock()
	if len(w.violations) > 0 {
		return w.violations, true
	}
	for _, i := range seq {
		op := ops[i]
		if !op.ok(w) {
			return nil, false
		}
		c := w.c
		c.mu.Lock()
		before := c.stats
		resident := map[*EncodedModule]bool{}
		for _, em := range c.store.modules {
			resident[em] = em.state == stateResident
		}
		c.mu.Unlock()
		op.run(w)
		if w.c != c { // restarted: the step evicted nothing
			c = w.c
			before = c.stats
		}
		c.mu.Lock()
		entered := false
		for _, em := range c.store.modules {
			entered = entered || em.state == stateResident && !resident[em]
		}
		evicted := c.stats.ModulesEvicted - before.ModulesEvicted
		demoted := c.stats.ModulesDemoted - before.ModulesDemoted
		w.check(evicted, demoted, entered)
		c.mu.Unlock()
		if len(w.violations) > 0 {
			return w.violations, true
		}
	}
	return nil, true
}

// TestTierStoreExhaustive enumerates every sequence of checker ops up to
// -tierdepth on every pool shape — register, replace (fitting, refused,
// failing its encode), plan, the resolve phases of a serve (read,
// install, re-encode, install) as separate steps so other ops interleave
// with them, close, transient and corrupt blob reads, and
// SaveAll's cut and its write as separate steps, with a restart from the
// snapshot — and checks the store's invariants after every step
// (tsWorld.check), that every serve's states equal the encode's, and
// that a failed replacement leaves the old schema serving.
func TestTierStoreExhaustive(t *testing.T) {
	m := tsModel(t)
	ops := tsOps()
	for _, cfg := range []tsConfig{
		{1, 1, true}, {1, 2, true}, {2, 1, true}, {2, 2, true},
		{1, 1, false}, {2, 2, false}, {1, 0, true}, {2, 0, false},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			f := newTSFixture(t, m)
			dir := t.TempDir()
			start := time.Now()
			sequences := 0
			var seq []int
			var walk func(depth int) bool
			walk = func(depth int) bool {
				for i := range ops {
					seq = append(seq, i)
					v, ran := f.run(cfg, dir, seq, ops)
					if ran {
						sequences++
					}
					if v != nil {
						var names []string
						for _, j := range seq {
							names = append(names, ops[j].name)
						}
						t.Errorf("after [%s]:\n  %s", strings.Join(names, ", "), strings.Join(v, "\n  "))
						return false
					}
					ok := !ran || depth == 1 || walk(depth-1)
					seq = seq[:len(seq)-1]
					if !ok {
						return false
					}
				}
				return true
			}
			walk(*tierDepth)
			t.Logf("%d sequences up to depth %d in %v", sequences, *tierDepth, time.Since(start))
		})
	}
}
