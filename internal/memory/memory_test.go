package memory

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPoolAllocFree(t *testing.T) {
	p := NewPool(Device{Name: "gpu", Kind: HBM, Capacity: 100})
	if err := p.Alloc("a", 60); err != nil {
		t.Fatal(err)
	}
	if p.Used() != 60 {
		t.Fatalf("used=%d", p.Used())
	}
	if !p.Has("a") || p.Has("b") {
		t.Fatal("Has broken")
	}
	if err := p.Free("a"); err != nil {
		t.Fatal(err)
	}
	if p.Used() != 0 {
		t.Fatalf("used=%d after free", p.Used())
	}
}

func TestPoolOOM(t *testing.T) {
	p := NewPool(Device{Name: "gpu", Kind: HBM, Capacity: 100})
	if err := p.Alloc("a", 80); err != nil {
		t.Fatal(err)
	}
	err := p.Alloc("b", 30)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	// Failed alloc must not consume capacity.
	if p.Used() != 80 {
		t.Fatalf("used=%d", p.Used())
	}
}

func TestPoolUnlimitedCapacity(t *testing.T) {
	p := NewPool(Device{Name: "host", Kind: DRAM, Capacity: 0})
	if err := p.Alloc("big", 1<<50); err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc("bigger", 1<<61); err != nil {
		t.Fatalf("an unlimited pool refused an allocation: %v", err)
	}
}

func TestPoolDuplicateKey(t *testing.T) {
	p := NewPool(Device{Capacity: 100})
	if err := p.Alloc("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc("a", 1); err == nil {
		t.Fatal("duplicate key should fail")
	}
}

func TestPoolFreeUnknown(t *testing.T) {
	p := NewPool(Device{Capacity: 100})
	if err := p.Free("ghost"); err == nil {
		t.Fatal("free of unknown key should fail")
	}
}

func TestPoolNegativeAlloc(t *testing.T) {
	p := NewPool(Device{Capacity: 100})
	if err := p.Alloc("a", -5); err == nil {
		t.Fatal("negative alloc should fail")
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool(Device{Capacity: 1 << 40})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				key := string(rune('a'+w)) + string(rune(i))
				if err := p.Alloc(key, 10); err != nil {
					done <- err
					return
				}
				if err := p.Free(key); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if p.Used() != 0 {
		t.Fatalf("used=%d after balanced ops", p.Used())
	}
}

// TestPaperCopyAnchors pins the transfer model to §5.4's measured values:
// one layer-slice of 5K tokens of Llama2-7B attention states (78.1 MiB)
// copies in ~3.79 ms host-to-host, ~5.34 ms host-to-device and ~0.23 ms
// device-to-device (see the anchorBytes comment for why per-layer is the
// physically consistent reading).
func TestPaperCopyAnchors(t *testing.T) {
	const bytes5K = 5000 * 16 * 1024
	cases := []struct {
		link Link
		want float64 // ms
	}{
		{HostToHost(), 3.79},
		{HostToDevice(), 5.34},
		{DeviceToDevice(), 0.23},
	}
	for _, c := range cases {
		got := c.link.TransferTime(bytes5K).Seconds() * 1e3
		if math.Abs(got-c.want)/c.want > 0.05 {
			t.Errorf("%s: %0.3f ms, want ~%0.2f ms", c.link.Name, got, c.want)
		}
	}
}

func TestTransferTimeLinearInSize(t *testing.T) {
	l := HostToDevice()
	t1 := l.TransferTime(1 << 20).Seconds()
	t2 := l.TransferTime(1 << 21).Seconds()
	lat := l.Latency.Seconds()
	ratio := (t2 - lat) / (t1 - lat)
	if math.Abs(ratio-2) > 0.01 {
		t.Fatalf("transfer not linear: ratio=%v", ratio)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	l := HostToHost()
	if got := l.TransferTime(0); got != l.Latency {
		t.Fatalf("zero transfer = %v", got)
	}
}

func TestScaledLink(t *testing.T) {
	base := HostToHost()
	slow := ScaledLink(base, 0.5)
	b := int64(1 << 30)
	fastT := base.TransferTime(b) - base.Latency
	slowT := slow.TransferTime(b) - slow.Latency
	if math.Abs(float64(slowT)/float64(fastT)-2) > 0.01 {
		t.Fatalf("scaled link wrong: %v vs %v", slowT, fastT)
	}
}

func TestKindString(t *testing.T) {
	if HBM.String() != "HBM" || DRAM.String() != "DRAM" {
		t.Fatal("Kind strings")
	}
}

func TestLatencyDominatesSmallCopies(t *testing.T) {
	l := DeviceToDevice()
	small := l.TransferTime(64)
	if small < l.Latency || small > l.Latency+time.Millisecond {
		t.Fatalf("small copy = %v", small)
	}
}

// TestDiskKind: the disk tier's device kind prints and pools like any
// other.
func TestDiskKind(t *testing.T) {
	if Disk.String() != "Disk" {
		t.Fatalf("Disk kind prints %q", Disk.String())
	}
	p := NewPool(Device{Name: "nvme", Kind: Disk})
	if err := p.Alloc("m", 1<<20); err != nil {
		t.Fatal(err)
	}
	if p.Used() != 1<<20 {
		t.Fatalf("used = %d", p.Used())
	}
}
