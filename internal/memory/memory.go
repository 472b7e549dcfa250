// Package memory simulates the two storage tiers the paper stores prompt
// modules in (§4.1): GPU HBM (fast, scarce) and host DRAM (abundant,
// behind a host-to-device copy). It provides capacity-tracked pools and a
// transfer-cost model calibrated to the paper's measured copy latencies
// (§5.4: for 5K tokens of Llama2-7B attention states, host-to-host
// 3.79 ms, host-to-device 5.34 ms, device-to-device 0.23 ms).
package memory

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind distinguishes memory technologies.
type Kind int

const (
	// DRAM is host memory (scales to terabytes, §4.1).
	DRAM Kind = iota
	// HBM is GPU device memory (fast but capacity-limited).
	HBM
	// Disk is durable block storage (NVMe/SSD): effectively unbounded,
	// behind a read that is slower than any memcpy but far cheaper than
	// re-running prompt module encoding. The third tier below §4.1's two.
	Disk
)

func (k Kind) String() string {
	switch k {
	case HBM:
		return "HBM"
	case Disk:
		return "Disk"
	}
	return "DRAM"
}

// ErrOutOfMemory is returned when an allocation exceeds pool capacity.
var ErrOutOfMemory = errors.New("memory: out of capacity")

// Device describes one memory device.
type Device struct {
	Name     string
	Kind     Kind
	Capacity int64 // bytes
}

// Pool tracks allocations against a device's capacity. It is a
// bookkeeping simulator: callers own the real buffers; the pool answers
// "would this fit on the A40?".
type Pool struct {
	dev Device

	mu     sync.Mutex
	used   int64
	allocs map[string]int64
}

// NewPool returns an empty pool for the device.
func NewPool(dev Device) *Pool {
	return &Pool{dev: dev, allocs: make(map[string]int64)}
}

// Alloc reserves size bytes under the given key. It fails with
// ErrOutOfMemory if the reservation would exceed capacity, and rejects
// duplicate keys.
func (p *Pool) Alloc(key string, size int64) error {
	if size < 0 {
		return fmt.Errorf("memory: negative allocation %d for %q", size, key)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.allocs[key]; dup {
		return fmt.Errorf("memory: duplicate allocation key %q", key)
	}
	if p.dev.Capacity > 0 && p.used+size > p.dev.Capacity {
		return fmt.Errorf("%w: %s used %d + %d > %d", ErrOutOfMemory, p.dev.Name, p.used, size, p.dev.Capacity)
	}
	p.allocs[key] = size
	p.used += size
	return nil
}

// Free releases the reservation under key.
func (p *Pool) Free(key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	size, ok := p.allocs[key]
	if !ok {
		return fmt.Errorf("memory: free of unknown key %q", key)
	}
	delete(p.allocs, key)
	p.used -= size
	return nil
}

// Has reports whether key is currently allocated.
func (p *Pool) Has(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.allocs[key]
	return ok
}

// Capacity returns the device's capacity in bytes; 0 means uncapped.
func (p *Pool) Capacity() int64 { return p.dev.Capacity }

// Used returns the bytes currently reserved.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Link models a copy path between two memories with an effective
// bandwidth and a fixed setup latency. "Effective" means calibrated to
// end-to-end measured copies (pinned buffers, parallel channels), not the
// theoretical pin rate; the paper's three §5.4 anchors are reproduced by
// the stock links below.
type Link struct {
	Name    string
	BW      float64       // bytes per second
	Latency time.Duration // fixed per-transfer setup cost
}

// TransferTime returns the modelled duration of copying size bytes.
func (l Link) TransferTime(size int64) time.Duration {
	if size <= 0 {
		return l.Latency
	}
	sec := float64(size) / l.BW
	return l.Latency + time.Duration(sec*float64(time.Second))
}

// Anchor: the §5.4 copy latencies (3.79 / 5.34 / 0.23 ms for "attention
// states with 5K tokens") are only physically consistent as one layer's
// slice of Llama2-7B states: 5000 tokens × 16 KiB/layer-token = 78.1 MiB,
// giving ~21.6 GB/s host-to-host (DDR5 memcpy), ~15.3 GB/s host-to-device
// (pinned PCIe Gen4) and ~356 GB/s device-to-device — all plausible
// hardware rates, whereas the full-model 2.5 GiB in 3.79 ms would require
// an impossible 660 GB/s DDR5 copy. We therefore calibrate links to the
// per-layer reading; a full-model module copy costs Layers× one slice.
const anchorBytes = 5000 * 16 * 1024 // 78.1 MiB

// Stock links reproducing the paper's measured copy costs.
func HostToHost() Link {
	return Link{Name: "host-to-host", BW: float64(anchorBytes) / 3.79e-3, Latency: 30 * time.Microsecond}
}

// HostToDevice returns the PCIe upload path (DRAM → HBM).
func HostToDevice() Link {
	return Link{Name: "host-to-device", BW: float64(anchorBytes) / 5.34e-3, Latency: 50 * time.Microsecond}
}

// DeviceToDevice returns the on-GPU copy path (HBM → HBM).
func DeviceToDevice() Link {
	return Link{Name: "device-to-device", BW: float64(anchorBytes) / 0.23e-3, Latency: 10 * time.Microsecond}
}

// ScaledLink returns a link with bandwidth scaled by factor (e.g. a
// DDR4 host at ~0.64× the DDR5 anchor machine).
func ScaledLink(l Link, factor float64) Link {
	l.BW *= factor
	return l
}
