package memory

import (
	"math"
	"testing"
	"time"
)

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

func TestLatencyDominatesSmallCopies(t *testing.T) {
	l := DeviceToDevice()
	small := l.TransferTime(64)
	if small < l.Latency || small > l.Latency+time.Millisecond {
		t.Fatalf("small copy = %v", small)
	}
}
