package hw

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestTable2MemoryPerToken pins the Table 2 MB/token column. The paper's
// published values are matched to within rounding.
func TestTable2MemoryPerToken(t *testing.T) {
	want := map[string]float64{
		"BERT":        0.03,
		"Falcon 1B":   0.18,
		"Llama 7B":    0.50,
		"Llama 13B":   0.78,
		"MPT 30B":     1.31,
		"Falcon 40B":  1.87,
		"Llama 70B":   2.50,
		"Falcon 180B": 4.53,
	}
	for _, m := range Table2Models() {
		w, ok := want[m.Name]
		if !ok {
			t.Fatalf("unexpected model %q", m.Name)
		}
		got := m.MBPerToken()
		// Within 10% or the paper's own two-decimal rounding grain.
		if math.Abs(got-w)/w > 0.10 && math.Abs(got-w) > 0.006 {
			t.Errorf("%s: %.3f MB/token, paper %.2f", m.Name, got, w)
		}
	}
}

// TestAnchor4090Llama pins the §5.4 end-to-end anchor: Llama2-7B at 3K
// context on the RTX 4090 has ~900 ms baseline TTFT and ~32 ms/token
// decode; cached TTFT drops to the ~90 ms scale.
func TestAnchor4090Llama(t *testing.T) {
	d := RTX4090()
	m := Llama7B()
	base := BaselineTTFT(d, m, 3000).Seconds() * 1e3
	if base < 600 || base > 1200 {
		t.Errorf("baseline TTFT @3K = %.0f ms, paper ~900 ms", base)
	}
	dec := DecodeTime(d, m, 3000).Seconds() * 1e3
	if dec < 22 || dec > 45 {
		t.Errorf("decode = %.1f ms/token, paper ~32 ms", dec)
	}
	cached := CachedTTFT(d, m, 3000, 30, FromLocal).Seconds() * 1e3
	if cached < 40 || cached > 140 {
		t.Errorf("cached TTFT @3K = %.0f ms, paper ~90 ms", cached)
	}
}

// TestGPUSpeedupBands checks Fig-3's headline bands on a representative
// 5K-token LongBench-scale prompt (~300 uncached tokens): 5–10× with
// modules in GPU memory, 1.5–3× from CPU memory (§5.2.1, allowing the
// "up to" ends a little headroom).
func TestGPUSpeedupBands(t *testing.T) {
	m := Llama7B()
	for _, d := range AllGPUs() {
		base := BaselineTTFT(d, m, 5300)
		local := CachedTTFT(d, m, 5000, 300, FromLocal)
		host := CachedTTFT(d, m, 5000, 300, FromHost)
		sLocal := Speedup(base, local)
		sHost := Speedup(base, host)
		t.Logf("%s: base=%v local=%v (%.1fx) host=%v (%.1fx)", d.Name, base, local, sLocal, host, sHost)
		if sLocal < 4 || sLocal > 22 {
			t.Errorf("%s: GPU-memory speedup %.1fx outside 5-10x band (±)", d.Name, sLocal)
		}
		if sHost < 1.3 || sHost > 5.5 {
			t.Errorf("%s: CPU-memory speedup %.1fx outside 1.5-3x band (±)", d.Name, sHost)
		}
		if local >= host {
			t.Errorf("%s: local cache should beat host cache", d.Name)
		}
	}
}

// TestCPUSpeedupBands checks Fig-4's headline: up to ~70× on the Intel
// DDR5 box and ~20× on the AMD DDR4 box for a small-suffix dataset.
func TestCPUSpeedupBands(t *testing.T) {
	m := Llama7B()
	intel, amd := IntelI9(), amdRyzen9()
	base := BaselineTTFT(intel, m, 5060)
	cached := CachedTTFT(intel, m, 5000, 60, FromLocal)
	sIntel := Speedup(base, cached)
	t.Logf("Intel: base=%v cached=%v (%.0fx)", base, cached, sIntel)
	if sIntel < 45 || sIntel > 95 {
		t.Errorf("Intel speedup %.0fx, paper up to ~70x", sIntel)
	}
	baseA := BaselineTTFT(amd, m, 5060)
	cachedA := CachedTTFT(amd, m, 5000, 60, FromLocal)
	sAMD := Speedup(baseA, cachedA)
	t.Logf("AMD: base=%v cached=%v (%.0fx)", baseA, cachedA, sAMD)
	if sAMD < 12 || sAMD > 32 {
		t.Errorf("AMD speedup %.0fx, paper up to ~20x", sAMD)
	}
	if sAMD >= sIntel {
		t.Error("Intel must benefit more than AMD (§5.2.2)")
	}
}

// TestQuadraticVsLinear is Fig-5's claim: baseline TTFT grows
// quadratically with sequence length while Prompt Cache's cost grows
// linearly, so the advantage widens with n.
func TestQuadraticVsLinear(t *testing.T) {
	m := Llama7B()
	for _, d := range []*Device{RTX4090(), IntelI9()} {
		adv2k := Speedup(BaselineTTFT(d, m, 2048), CachedTTFT(d, m, 2048, 0, FromHost))
		adv8k := Speedup(BaselineTTFT(d, m, 8192), CachedTTFT(d, m, 8192, 0, FromHost))
		if adv8k <= adv2k {
			t.Errorf("%s: advantage must widen with n (2K: %.1fx, 8K: %.1fx)", d.Name, adv2k, adv8k)
		}
		// The copy cost itself is linear: doubling n roughly doubles it.
		c4 := CachedTTFT(d, m, 4096, 0, FromHost) - d.Overhead
		c8 := CachedTTFT(d, m, 8192, 0, FromHost) - d.Overhead
		ratio := float64(c8) / float64(c4)
		if ratio < 1.8 || ratio > 2.2 {
			t.Errorf("%s: copy cost ratio %.2f, want ~2 (linear)", d.Name, ratio)
		}
		// Baseline is superlinear.
		b4 := BaselineTTFT(d, m, 4096) - d.Overhead
		b8 := BaselineTTFT(d, m, 8192) - d.Overhead
		if float64(b8)/float64(b4) <= 2.0 {
			t.Errorf("%s: baseline should grow superlinearly", d.Name)
		}
	}
}

// TestModelSizeEffect is §5.4's second claim: moving 7B→13B at 3K tokens
// adds a lot of baseline latency but little cached latency (paper: +220 ms
// vs +30 ms). Note the paper's +220 ms is not consistent with its own
// 900 ms@3K 7B anchor under any fixed MFU (the 13B prefill is ~1.9× the
// FLOPs), so we assert the qualitative claim — the baseline delta is large
// and the cached delta is several times smaller — with a wide band;
// the sec54 report states the deviation in a note.
func TestModelSizeEffect(t *testing.T) {
	d := RTX4090()
	dBase := BaselineTTFT(d, Llama13B(), 3000) - BaselineTTFT(d, Llama7B(), 3000)
	dCached := CachedTTFT(d, Llama13B(), 3000, 0, FromHost) - CachedTTFT(d, Llama7B(), 3000, 0, FromHost)
	t.Logf("7B->13B @3K: baseline +%v, cached +%v", dBase, dCached)
	if dBase < 150*time.Millisecond || dBase > 900*time.Millisecond {
		t.Errorf("baseline delta %v, paper ~+220 ms", dBase)
	}
	if dCached > dBase/3 {
		t.Errorf("cached delta %v should be far below baseline delta %v", dCached, dBase)
	}
}

// TestFig6CodeGenScale: the code-generation example (Fig. 6) reports GPU
// 924→93 ms and CPU 75,976→861 ms with CodeLlama-7B. Matching the CPU
// numbers implies roughly a 3K-token prompt with a small uncached suffix;
// verify our model lands on those scales.
func TestFig6CodeGenScale(t *testing.T) {
	const cachedTok, newTok = 3000, 40
	g := RTX4090()
	m := CodeLlama7B()
	gb := BaselineTTFT(g, m, cachedTok+newTok).Seconds() * 1e3
	gc := CachedTTFT(g, m, cachedTok, newTok, FromLocal).Seconds() * 1e3
	t.Logf("fig6 GPU: base=%.0fms cached=%.0fms", gb, gc)
	if gb < 500 || gb > 1500 {
		t.Errorf("fig6 GPU baseline %.0f ms, paper 924 ms", gb)
	}
	if gc < 40 || gc > 180 {
		t.Errorf("fig6 GPU cached %.0f ms, paper 93 ms", gc)
	}
	c := IntelI9()
	cb := BaselineTTFT(c, m, cachedTok+newTok).Seconds() * 1e3
	cc := CachedTTFT(c, m, cachedTok, newTok, FromLocal).Seconds() * 1e3
	t.Logf("fig6 CPU: base=%.0fms cached=%.0fms", cb, cc)
	if cb < 40000 || cb > 120000 {
		t.Errorf("fig6 CPU baseline %.0f ms, paper 75,976 ms", cb)
	}
	if cc < 400 || cc > 3000 {
		t.Errorf("fig6 CPU cached %.0f ms, paper 861 ms", cc)
	}
}

func TestDecodeIsMemoryBoundOnGPU(t *testing.T) {
	d := RTX4090()
	m := Llama7B()
	// Weight streaming should dominate decode for a 7B model.
	stream := float64(m.WeightBytes()) / d.EffMemBW()
	compute := m.decodeFLOPs(3000) / d.EffFLOPs()
	if stream <= compute {
		t.Fatalf("expected memory-bound decode (stream %.4fs vs compute %.4fs)", stream, compute)
	}
}

func TestSuffixFLOPsLessThanPrefill(t *testing.T) {
	m := Llama7B()
	if m.SuffixFLOPs(100, 5100) >= m.prefillFLOPs(5100) {
		t.Fatal("suffix compute must be far below full prefill")
	}
	// Suffix of everything == full prefill's weights term + attention.
	full := m.prefillFLOPs(5000)
	suffixAll := m.SuffixFLOPs(5000, 5000)
	if math.Abs(full-suffixAll)/full > 1e-9 {
		t.Fatalf("SuffixFLOPs(n,n) = %g, prefillFLOPs(n) = %g", suffixAll, full)
	}
}

func TestSpeedupEdgeCases(t *testing.T) {
	if Speedup(time.Second, 0) != 0 {
		t.Fatal("zero cached should yield 0 sentinel")
	}
	if got := Speedup(2*time.Second, time.Second); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
}

func TestDeviceClassString(t *testing.T) {
	if GPU.String() != "GPU" || CPU.String() != "CPU" {
		t.Fatal("class strings")
	}
	if ModuleSource(FromHost).String() != "CPU memory" || FromLocal.String() != "GPU memory" {
		t.Fatal("source strings")
	}
}

// TestThroughputModelSharingHelps reproduces §3.4's worked example: with
// 2K-token prompts sharing a 1K-token module, the halved per-request
// footprint roughly doubles the admissible batch and lifts throughput.
func TestThroughputModelSharingHelps(t *testing.T) {
	d := A100()
	m := Llama7B()
	budget := int64(20) << 30 // HBM left after weights
	none := ThroughputModel(d, m, 2000, 0, budget)
	half := ThroughputModel(d, m, 2000, 0.5, budget)
	if half.BatchSize < int(1.8*float64(none.BatchSize)) {
		t.Fatalf("sharing 50%% should ~double batch: %d -> %d", none.BatchSize, half.BatchSize)
	}
	if half.TokensPerSec <= none.TokensPerSec {
		t.Fatalf("sharing should raise throughput: %.0f -> %.0f tok/s", none.TokensPerSec, half.TokensPerSec)
	}
	// Monotone in share fraction.
	prev := 0.0
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		p := ThroughputModel(d, m, 2000, f, budget)
		if p.TokensPerSec < prev {
			t.Fatalf("throughput fell at share=%.2f", f)
		}
		prev = p.TokensPerSec
	}
	// Degenerate budget still yields a sane batch of 1.
	tiny := ThroughputModel(d, m, 2000, 0, 1<<20)
	if tiny.BatchSize != 1 {
		t.Fatalf("tiny budget batch = %d", tiny.BatchSize)
	}
}

func TestAllDeviceListsPopulated(t *testing.T) {
	if len(AllGPUs()) != 3 || len(AllCPUs()) != 2 {
		t.Fatal("device fleets wrong size")
	}
	for _, d := range append(AllGPUs(), AllCPUs()...) {
		if d.EffFLOPs() <= 0 || d.EffMemBW() <= 0 {
			t.Fatalf("%s: non-positive rates", d.Name)
		}
		if d.Upload.BW <= 0 || d.Local.BW <= 0 {
			t.Fatalf("%s: non-positive link bandwidth", d.Name)
		}
	}
}

// TestDetectCPUVectorFollowsSelection ties the reported ISA to the
// matmul and attention bodies internal/tensor selected: their ISA when
// they run vector bodies, the architecture's baseline when they run the
// Go bodies.
func TestDetectCPUVectorFollowsSelection(t *testing.T) {
	want := tensor.VectorISA()
	if want == "" {
		want = vectorBaseline(runtime.GOARCH)
	}
	if got := DetectCPU().Vector; got != want {
		t.Fatalf("DetectCPU().Vector = %q, want %q (tensor.VectorISA() = %q)", got, want, tensor.VectorISA())
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
		name string
		link Link
		want float64 // ms
	}{
		{"host-to-host", hostToHost(), 3.79},
		{"host-to-device", hostToDevice(), 5.34},
		{"device-to-device", deviceToDevice(), 0.23},
	}
	for _, c := range cases {
		got := c.link.TransferTime(bytes5K).Seconds() * 1e3
		if math.Abs(got-c.want)/c.want > 0.05 {
			t.Errorf("%s: %0.3f ms, want ~%0.2f ms", c.name, got, c.want)
		}
	}
}

func TestTransferTimeLinearInSize(t *testing.T) {
	l := hostToDevice()
	t1 := l.TransferTime(1 << 20).Seconds()
	t2 := l.TransferTime(1 << 21).Seconds()
	lat := l.Latency.Seconds()
	ratio := (t2 - lat) / (t1 - lat)
	if math.Abs(ratio-2) > 0.01 {
		t.Fatalf("transfer not linear: ratio=%v", ratio)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	l := hostToHost()
	if got := l.TransferTime(0); got != l.Latency {
		t.Fatalf("zero transfer = %v", got)
	}
}

func TestScaledLink(t *testing.T) {
	base := hostToHost()
	slow := scaled(base, 0.5)
	b := int64(1 << 30)
	fastT := base.TransferTime(b) - base.Latency
	slowT := slow.TransferTime(b) - slow.Latency
	if math.Abs(float64(slowT)/float64(fastT)-2) > 0.01 {
		t.Fatalf("scaled link wrong: %v vs %v", slowT, fastT)
	}
}

func TestLatencyDominatesSmallCopies(t *testing.T) {
	l := deviceToDevice()
	small := l.TransferTime(64)
	if small < l.Latency || small > l.Latency+time.Millisecond {
		t.Fatalf("small copy = %v", small)
	}
}
