package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
)

// tierLedgerLocked sums the bytes the module inventory says each pool
// holds: resident modules in the device pool, demoted modules in the
// host pool. Scaffolds are modules, so they need no term of their own.
func tierLedgerLocked(c *Cache) (device, host int64) {
	for _, em := range c.store.modules {
		switch em.state {
		case stateResident:
			device += em.size()
		case stateDemoted:
			host += em.size()
		}
	}
	return device, host
}

// assertTierGauges fails unless each tier's gauge in the stats document
// is the bytes of the modules that tier holds.
func assertTierGauges(t *testing.T, c *Cache) {
	t.Helper()
	s := c.Snapshot()
	c.mu.Lock()
	device, host := tierLedgerLocked(c)
	var disk int64
	if c.store.disk != nil {
		for _, e := range c.store.disk.index {
			disk += e.bytes
		}
	}
	c.mu.Unlock()
	if s.Tiers.DeviceBytes != device || s.Tiers.HostBytes != host || s.Tiers.DiskBytes != disk {
		t.Fatalf("gauges device %d host %d disk %d, modules hold device %d host %d disk %d",
			s.Tiers.DeviceBytes, s.Tiers.HostBytes, s.Tiers.DiskBytes, device, host, disk)
	}
}

// churnSchema's six modules have six words each, so every module's
// states take the same bytes and tier gauges count modules.
const churnSchema = `<schema name="churn">
  <module name="m0">alpha beta gamma delta epsilon zeta</module>
  <module name="m1">one two three four five six</module>
  <module name="m2">red green blue cyan magenta yellow</module>
  <module name="m3">north south east west up down</module>
  <module name="m4">salt pepper thyme basil sage mint</module>
  <module name="m5">oak pine elm ash birch maple</module>
</schema>`

// TestSnapshotConsistentUnderChurn: serves churn modules through a
// device and a host tier of two modules each and a disk tier below them
// while another goroutine snapshots. Every document must be one
// moment's books: the device gauge is read once, and the host gauge
// equals the modules it holds by the counters — counters and a pool that
// two separately locked reads can catch mid-move. Every device eviction
// here either demotes or spills, and the host sends its oldest occupant
// to disk to make room, so the host holds evicted − promoted − spilled
// modules. At
// quiescence the gauges equal the inventory's resident and demoted
// bytes, with no accounting error and no pin left behind.
func TestSnapshotConsistentUnderChurn(t *testing.T) {
	m, err := model.New(model.LlamaStyle(coreVocab, 733))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewCache(m)
	mustRegister(t, probe, churnSchema)
	var size int64
	for name, em := range probe.store.modules {
		if size == 0 {
			size = em.size()
		}
		if em.size() != size {
			t.Fatalf("module %s takes %d bytes, others %d: the fixture needs equal modules", name, em.size(), size)
		}
	}

	c := NewCache(m,
		WithDeviceCapacity(2*size),
		WithHostTier(2*size),
		WithDiskTier(t.TempDir(), CodecFP32),
	)
	mustRegister(t, c, churnSchema)

	ctx := context.Background()
	done := make(chan struct{})
	snaps := make(chan int, 1)
	go func() {
		n := 0
		defer func() { snaps <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			s := c.Snapshot()
			n++
			if s.PoolBytes != s.Tiers.DeviceBytes {
				t.Errorf("pool_bytes %d != tiers.device_bytes %d", s.PoolBytes, s.Tiers.DeviceBytes)
				return
			}
			if held := int64(s.ModulesEvicted - s.Tiers.ModulesPromoted - s.Tiers.ModulesSpilled); s.Tiers.HostBytes != held*size {
				t.Errorf("host holds %d bytes, but %d evicted - %d promoted - %d spilled modules of %d bytes: not one cut",
					s.Tiers.HostBytes, s.ModulesEvicted, s.Tiers.ModulesPromoted, s.Tiers.ModulesSpilled, size)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				a, b := (w+i)%6, (w+2*i+1)%6
				if a == b {
					b = (b + 1) % 6
				}
				prompt := fmt.Sprintf(`<prompt schema="churn"><m%d/><m%d/>Next?</prompt>`, a, b)
				res, err := c.Serve(ctx, prompt, ServeOpts{})
				if err != nil {
					t.Error(err)
					return
				}
				res.Close()
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if n := <-snaps; n == 0 {
		t.Fatal("no snapshot ran during the churn")
	}

	s := c.Snapshot()
	if s.Tiers.ModulesSpilled == 0 || s.Tiers.ModulesPromoted == 0 || s.Tiers.DiskHits == 0 {
		t.Fatalf("the squeeze never cycled modules through host and disk: %+v", s.Tiers)
	}
	if s.Tiers.TierAccountErrors != 0 {
		t.Fatalf("tier_account_errors = %d", s.Tiers.TierAccountErrors)
	}
	c.mu.Lock()
	device, host := tierLedgerLocked(c)
	c.mu.Unlock()
	if s.Tiers.DeviceBytes != device || s.Tiers.HostBytes != host {
		t.Fatalf("gauges device %d host %d, inventory holds device %d host %d",
			s.Tiers.DeviceBytes, s.Tiers.HostBytes, device, host)
	}
	assertNoPins(t, c)
}
