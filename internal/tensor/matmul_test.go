package tensor

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
)

// matMulSpecials are the non-finite and signed-zero operands the vector
// body must treat exactly as the Go body does: NaNs with distinct
// payloads and both signs, quiet and signalling, so a swapped operand
// shows as a different payload in the result.
var matMulSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00001, 0xffc00002, 0x7fc0abcd, // quiet NaNs
	0x7f800003, 0xff812345, // signalling NaNs
}

// fillSpecial fills data with normals, replacing each element with a
// special operand with probability 1/every.
func fillSpecial(r *rng.RNG, data []float32, every int) {
	r.FillNormal(data, 1)
	for i := range data {
		if r.Intn(every) == 0 {
			data[i] = math.Float32frombits(matMulSpecials[r.Intn(len(matMulSpecials))])
		}
	}
}

// nanPayloadsCompared is false only in race builds (matmul_race_test.go).
var nanPayloadsCompared = true

// bitsEqualAnyNaN is bitsEqual with any NaN equal to any NaN. The Go
// body's NaN payloads hold only as it is normally compiled: race and
// fuzzing instrumentation recompile it with other registers, which can
// swap the operand that comes first when two NaNs meet.
func bitsEqualAnyNaN(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && (a[i] == a[i] || b[i] == b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestMatMulVectorMatchesGo compares the vector body directly with the
// Go body, bit for bit, on every column range a shard can be given:
// lo at each multiple of 8, hi at each later multiple of 8 or the last
// column. Row counts cover row pairs with and without an odd last row;
// widths cover every split into 32-column strips, a 16-column tier, an
// 8-column run and a Go tail. At the FFN width 688 only shards that
// start in the first strip or the last run are tried, which still meets
// every split. The operands carry ±0, ±Inf and NaN payloads, so this is not
// matMulRef's contract (which skips a == 0 and so differs on Inf·0) but
// the Go body's exact one, NaN payloads included. Outputs outside
// [lo, hi) start as a sentinel and must keep it.
func TestMatMulVectorMatchesGo(t *testing.T) {
	if matMulVector == nil {
		t.Skip("no vector body on this build or CPU")
	}
	same := bitsEqual
	if !nanPayloadsCompared {
		same = bitsEqualAnyNaN
	}
	r := rng.NewString("matmul/vector")
	const sentinel = -1234.5
	for _, every := range []int{2, 8} {
		for _, k := range []int{0, 1, 2, 5, 64} {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
				for _, m := range []int{1, 7, 8, 9, 16, 31, 32, 33, 40, 48, 64, 176, 688} {
					a, b := NewMatrix(n, k), NewMatrix(k, m)
					fillSpecial(r, a.Data, every)
					fillSpecial(r, b.Data, every)
					want, got := NewMatrix(n, m), NewMatrix(n, m)
					for lo := 0; lo < m; lo += 8 {
						if m > 176 && lo >= 32 && lo < m-8 {
							continue
						}
						for hi := lo + 1; hi <= m; hi++ {
							if hi%8 != 0 && hi != m {
								continue
							}
							for i := range want.Data {
								want.Data[i], got.Data[i] = sentinel, sentinel
							}
							matMulRangeGo(want, a, b, lo, hi)
							matMulVector(got, a, b, lo, hi)
							if i, ok := same(want.Data, got.Data); !ok {
								t.Fatalf("1/%d specials, %dx%dx%d [%d,%d): element %d is %#08x, Go body %#08x",
									every, n, k, m, lo, hi, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorISAFollowsSelection ties the reported ISA to the bodies
// matMulRange and the attention leaves actually run.
func TestVectorISAFollowsSelection(t *testing.T) {
	if (matMulVector != nil) != (VectorISA() != "") {
		t.Fatalf("VectorISA() = %q with vector body set = %v", VectorISA(), matMulVector != nil)
	}
	if attendVector != (VectorISA() != "") {
		t.Fatalf("VectorISA() = %q with vector attention = %v", VectorISA(), attendVector)
	}
	if v := VectorISA(); v != "" && (runtime.GOARCH != "amd64" || v != "avx2") {
		t.Fatalf("VectorISA() = %q on %s", v, runtime.GOARCH)
	}
}

// fusedMnemonic matches every x86 fused multiply-add form: VFMADD,
// VFMSUB, VFNMADD and VFNMSUB with any 132/213/231 order, packed or
// scalar, and the ADDSUB/SUBADD variants.
var fusedMnemonic = regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)\w*`)

// expLaneFused matches the fused forms the exp lanes may use: packed
// float64 VFMADD and VFNMADD.
var expLaneFused = regexp.MustCompile(`^(?i)VFN?MADD(132|213|231)PD$`)

// TestNoFusedMultiplyAddInAssembly guards the vector bodies' contract: a
// fused multiply-add skips the product's rounding, so no float32 term in
// this package's assembly may use one. The one exception is the exp
// lanes' float64 evaluation (the EXP_LANES macro), whose result only
// passes exp32's midpoint guard when its float32 rounding cannot depend
// on those roundings; there only packed float64 VFMADD and VFNMADD are
// allowed. Comments are skipped; instructions are not.
func TestNoFusedMultiplyAddInAssembly(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no assembly files found; the guard would check nothing")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inExp := false // inside the EXP_LANES definition
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(line, "#define EXP_LANES(") {
				inExp = true
			}
			cont := strings.HasSuffix(strings.TrimSpace(line), "\\")
			if c := strings.Index(line, "//"); c >= 0 {
				line = line[:c]
			}
			if mn := fusedMnemonic.FindString(line); mn != "" {
				if !inExp || !expLaneFused.MatchString(mn) {
					t.Errorf("%s:%d: fused multiply-add %s", f, i+1, mn)
				}
			}
			inExp = inExp && cont
		}
	}
}
