// Package lockfix seeds lockscope violations: heavy calls reached from
// explicit Lock/Unlock regions, from *Locked-named functions, and
// transitively through helpers — plus the patterns that must NOT flag
// (off-lock calls, goroutine launches, suppressed sites).
package lockfix

import "sync"

type Cache struct{ mu sync.Mutex }

type Model struct{}

func (m *Model) Prefill() {}

func (m *Model) Decode() {}

func (c *Cache) badDirect(m *Model) {
	c.mu.Lock()
	m.Prefill() // want lockscope
	c.mu.Unlock()
	m.Prefill() // off-lock: fine
}

func (c *Cache) encodeLocked(m *Model) {
	m.Decode() // want lockscope
}

func (c *Cache) deferred(m *Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	helper(m)
}

func helper(m *Model) {
	m.Prefill() // want lockscope
}

func (c *Cache) suppressed(m *Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//pclint:ignore lockscope fixture: deliberate one-time cost under the lock
	m.Prefill()
}

func (c *Cache) spawned(m *Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go m.Prefill() // the goroutine does not hold c.mu: fine
}

// MatMulKernel stands in for a tensor kernel entry point (the backend
// methods in the real config).
func MatMulKernel() {}

func (c *Cache) badKernel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	MatMulKernel() // want lockscope
}
