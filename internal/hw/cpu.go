package hw

import (
	"fmt"
	"runtime"

	"repro/internal/tensor"
)

// CPUInfo describes the host CPU as far as a pure-Go, cgo-free build can
// see it: architecture, core counts, and the vector ISA the kernels run
// on. It feeds backend auto-selection (internal/tensor) and the pcserve
// startup/stats reporting, so an operator can tell which kernels a
// deployment actually ran on.
type CPUInfo struct {
	// Arch is runtime.GOARCH ("amd64", "arm64", ...).
	Arch string
	// Cores is the number of logical CPUs usable by the process.
	Cores int
	// MaxProcs is the GOMAXPROCS ceiling on simultaneously executing
	// goroutines — the fan-out a multi-worker backend can actually use.
	MaxProcs int
	// Vector names the vector ISA the weight matmul and the attention
	// leaves run on: "avx2" when internal/tensor's start-up probe
	// selected their AVX2 bodies, otherwise the baseline the compiler may
	// assume for Arch ("sse2" on amd64, "neon" on arm64, ...), which is
	// what the Go bodies run on. It is
	// reported so speed differences across machines can be attributed.
	Vector string
}

// DetectCPU reports the host CPU as seen by the Go runtime. It is cheap
// enough to call per request, but callers normally capture it once at
// startup next to the backend choice.
func DetectCPU() CPUInfo {
	return CPUInfo{
		Arch:     runtime.GOARCH,
		Cores:    runtime.NumCPU(),
		MaxProcs: runtime.GOMAXPROCS(0),
		Vector:   vectorISA(),
	}
}

// vectorISA is the selected vector body's ISA, or the baseline when the
// Go bodies run.
func vectorISA() string {
	if v := tensor.VectorISA(); v != "" {
		return v
	}
	return vectorBaseline(runtime.GOARCH)
}

// vectorBaseline maps an architecture to the vector ISA the Go compiler
// is guaranteed to be able to emit for it.
func vectorBaseline(arch string) string {
	switch arch {
	case "amd64":
		return "sse2"
	case "arm64":
		return "neon"
	case "ppc64", "ppc64le":
		return "vsx"
	case "s390x":
		return "vector"
	}
	return "scalar"
}

// String renders the info on one line, e.g. "amd64 (avx2), 8 cores, GOMAXPROCS=8".
func (c CPUInfo) String() string {
	return fmt.Sprintf("%s (%s), %d cores, GOMAXPROCS=%d", c.Arch, c.Vector, c.Cores, c.MaxProcs)
}
