//go:build !purego

package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2ProbeMatchesProcCPUInfo checks the CPUID and XGETBV probe
// against a second witness where one exists: Linux lists avx2 (and fma)
// among a CPU's flags only when the kernel has also enabled the ymm
// state.
func TestAVX2ProbeMatchesProcCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			fs := strings.Fields(flags)
			if want := slices.Contains(fs, "avx2") && slices.Contains(fs, "fma"); hasAVX2FMA() != want {
				t.Fatalf("probe says AVX2+FMA = %v, /proc/cpuinfo says %v", hasAVX2FMA(), want)
			}
			return
		}
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
