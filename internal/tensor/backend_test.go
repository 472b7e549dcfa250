package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// The backend contract is bit-identity, so every comparison in this file
// is math.Float32bits equality — a one-ulp difference is a failure, not
// noise. Shapes deliberately include odd and tiny dimensions, where
// sharding boundaries (chunk remainders, workers > elements) are most
// likely to misalign.

// bitsEqual reports the first elementwise bit mismatch, if any.
func bitsEqual(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// challengers are the non-reference backends under test: varied worker
// counts exercise chunk remainders (3 workers over odd sizes) and the
// degenerate 1-worker schedule.
func challengers() []Backend {
	return []Backend{NewParallel(4), NewParallel(3), NewParallel(1)}
}

// fillSigned fills data with a deterministic mix of normals and exact
// zeros: the kernels' v == 0 skips are part of the accumulation
// contract, so inputs must actually hit them.
func fillSigned(r *rng.RNG, data []float32) {
	r.FillNormal(data, 1)
	for i := range data {
		if r.Intn(8) == 0 {
			data[i] = 0
		}
	}
}

func TestBackendsBitIdenticalMatMul(t *testing.T) {
	r := rng.NewString("backend/matmul")
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 13, 1}, {80, 96, 80}, {65, 33, 129}}
	for _, sh := range shapes {
		n, k, mm := sh[0], sh[1], sh[2]
		a, b := NewMatrix(n, k), NewMatrix(k, mm)
		fillSigned(r, a.Data)
		fillSigned(r, b.Data)
		want := NewMatrix(n, mm)
		Scalar().MatMul(want, a, b)
		for _, bk := range challengers() {
			got := NewMatrix(n, mm)
			bk.MatMul(got, a, b)
			if i, ok := bitsEqual(want.Data, got.Data); !ok {
				t.Fatalf("MatMul %dx%dx%d workers=%d: bit mismatch at %d", n, k, mm, bk.Workers(), i)
			}
		}
	}
}

func TestBackendsBitIdenticalMatVecT(t *testing.T) {
	r := rng.NewString("backend/matvect")
	shapes := [][2]int{{1, 1}, {7, 3}, {64, 65}, {257, 129}, {512, 384}}
	for _, sh := range shapes {
		in, out := sh[0], sh[1]
		w := NewMatrix(in, out)
		h := make([]float32, in)
		fillSigned(r, w.Data)
		fillSigned(r, h)
		want := make([]float32, out)
		Scalar().MatVecT(want, w, h)
		for _, bk := range challengers() {
			got := make([]float32, out)
			bk.MatVecT(got, w, h)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("MatVecT %dx%d workers=%d: bit mismatch at %d", in, out, bk.Workers(), i)
			}
		}
	}
}

func TestBackendsBitIdenticalOutputHead(t *testing.T) {
	r := rng.NewString("backend/outputhead")
	for _, lanes := range []int{1, 2, 3, 4, 5, 7} {
		vocab, dim := 301, 33
		emb := NewMatrix(vocab, dim)
		fillSigned(r, emb.Data)
		hs := make([][]float32, lanes)
		want := make([][]float32, lanes)
		got := make([][]float32, lanes)
		for k := range hs {
			hs[k] = make([]float32, dim)
			fillSigned(r, hs[k])
			want[k] = make([]float32, vocab)
			got[k] = make([]float32, vocab)
		}
		Scalar().OutputHead(want, emb, hs)
		for _, bk := range challengers() {
			for k := range got {
				clear(got[k])
			}
			bk.OutputHead(got, emb, hs)
			for k := range want {
				if i, ok := bitsEqual(want[k], got[k]); !ok {
					t.Fatalf("OutputHead lanes=%d workers=%d: lane %d bit mismatch at %d", lanes, bk.Workers(), k, i)
				}
			}
		}
	}
}

// attendPairsRef is the test oracle for AttendRowBlock: one (token, head)
// pair at a time, one Dot per key, the reference order every backend
// must reproduce bit for bit. It was the engine's attention body before
// the tile body replaced it.
func attendPairsRef(a *AttendArgs) {
	hd, width := a.HeadDim, a.Width
	scores := make([]float32, a.Past+a.Q.Rows)
	for i := 0; i < a.Q.Rows; i++ {
		for h := 0; h < a.NHeads; h++ {
			rows := a.Past + i + 1
			qPos := a.Positions[i]
			base := (h / a.Group) * hd
			qh := a.Q.Row(i)[h*hd : (h+1)*hd]
			s := scores[:rows]
			off := 0
			for _, sp := range a.Spans {
				if off >= rows {
					break
				}
				lim := min(len(sp.Pos), rows-off)
				for j := 0; j < lim; j++ {
					row := j * width
					sc := Dot(qh, sp.K[row+base:row+base+hd]) * a.InvSqrt
					if a.AlibiSlopes != nil {
						dist := qPos - sp.Pos[j]
						if dist < 0 {
							dist = 0
						}
						sc -= a.AlibiSlopes[h] * float32(dist)
					}
					s[off+j] = sc
				}
				off += lim
			}
			Softmax(s)
			oh := a.Out.Row(i)[h*hd : (h+1)*hd]
			clear(oh)
			off = 0
			for _, sp := range a.Spans {
				if off >= rows {
					break
				}
				lim := min(len(sp.Pos), rows-off)
				for j := 0; j < lim; j++ {
					w := s[off+j]
					if w == 0 {
						continue
					}
					row := j * width
					vh := sp.V[row+base : row+base+hd]
					for t := range oh {
						oh[t] += w * vh[t]
					}
				}
				off += lim
			}
		}
	}
}

// attendShape parameterizes buildAttend. Splits are the row indices
// where a new KV span starts (nil: one random split); qScale widens the
// score range, so large enough values drive softmax weights to exactly 0.
type attendShape struct {
	n, past, nHeads, group, headDim int
	alibi                           bool
	splits                          []int
	qScale                          float32
}

// buildAttend builds a deterministic attention block: n query tokens
// over past+n cached rows split into spans, optionally with ALiBi
// slopes, with position gaps so the explicit-position path is exercised.
// Its scratch is sized for whole units.
func buildAttend(r *rng.RNG, sh attendShape) *AttendArgs {
	n, past, nHeads, group, headDim := sh.n, sh.past, sh.nHeads, sh.group, sh.headDim
	width := (nHeads / group) * headDim
	rows := past + n
	q := NewMatrix(n, nHeads*headDim)
	out := NewMatrix(n, nHeads*headDim)
	fillSigned(r, q.Data)
	if sh.qScale != 0 {
		for i := range q.Data {
			q.Data[i] *= sh.qScale
		}
	}

	bounds := sh.splits
	if bounds == nil && rows > 2 {
		bounds = []int{1 + r.Intn(rows-1)}
	}
	bounds = append(append([]int(nil), bounds...), rows)
	var spans []Span
	pos := 0
	row := 0
	for _, b := range bounds {
		cnt := b - row
		if cnt <= 0 {
			continue
		}
		sp := Span{K: make([]float32, cnt*width), V: make([]float32, cnt*width), Pos: make([]int, cnt)}
		fillSigned(r, sp.K)
		fillSigned(r, sp.V)
		for j := range sp.Pos {
			pos += 1 + r.Intn(3) // gaps: positions are explicit, not dense
			sp.Pos[j] = pos
		}
		spans = append(spans, sp)
		row = b
	}
	positions := make([]int, n)
	last := spans[len(spans)-1]
	for i := range positions {
		positions[i] = last.Pos[len(last.Pos)-1] + i // query rows are the tail of the cache
	}
	var slopes []float32
	if sh.alibi {
		slopes = make([]float32, nHeads)
		for i := range slopes {
			slopes[i] = float32(math.Pow(2, -float64(i+1)))
		}
	}
	return &AttendArgs{
		Q: q, Out: out, Spans: spans, Past: past, Positions: positions,
		NHeads: nHeads, Group: group, HeadDim: headDim, Width: width,
		InvSqrt:     float32(1 / math.Sqrt(float64(headDim))),
		AlibiSlopes: slopes, Scores: make([]float32, min(attendTile, n)*group*rows),
	}
}

// checkAttend runs every backend, scalar included, against the oracle,
// once with whole-unit scratch and once with the minimum Past+n, which
// splits each unit's pairs into passes on the sequential path.
func checkAttend(t *testing.T, a *AttendArgs, backends []Backend, what string) {
	t.Helper()
	attendPairsRef(a)
	want := append([]float32(nil), a.Out.Data...)
	full := a.Scores
	defer func() { a.Scores = full }()
	for _, scratch := range []int{len(full), a.Past + a.Q.Rows} {
		a.Scores = full[:scratch]
		for _, bk := range backends {
			clear(a.Out.Data)
			bk.AttendRowBlock(a)
			if i, ok := bitsEqual(want, a.Out.Data); !ok {
				t.Fatalf("Attend %s %s workers=%d scratch=%d: bit mismatch at %d: %v vs %v",
					what, bk.Name(), bk.Workers(), scratch, i, a.Out.Data[i], want[i])
			}
		}
	}
}

func TestBackendsBitIdenticalAttend(t *testing.T) {
	r := rng.NewString("backend/attend")
	const T = attendTile
	cases := []attendShape{
		{n: 1, past: 0, nHeads: 1, group: 1, headDim: 4},
		{n: 1, past: 7, nHeads: 4, group: 2, headDim: 8},
		{n: 3, past: 5, nHeads: 4, group: 1, headDim: 4, alibi: true},
		{n: 16, past: 33, nHeads: 4, group: 2, headDim: 16},
		{n: 5, past: 64, nHeads: 6, group: 3, headDim: 8, alibi: true},
		// MQA: every query head shares one KV head; 48 pairs per tile
		// exceed one pass.
		{n: T + 1, past: 20, nHeads: 6, group: 6, headDim: 4},
		// A span boundary inside tile 0's causal tail, and one inside
		// tile 1's.
		{n: 2*T + 3, past: 10, nHeads: 4, group: 2, headDim: 8, splits: []int{13, 10 + T + 4}},
		// Weights that underflow to exactly 0, so the w == 0 skip runs.
		{n: T, past: 40, nHeads: 4, group: 4, headDim: 8, qScale: 64},
		{n: 1, past: 40, nHeads: 4, group: 2, headDim: 8, qScale: 64, alibi: true},
	}
	for _, n := range []int{1, T - 1, T, T + 1, 2*T + 3} {
		for _, group := range []int{1, 2, 3, 4} {
			cases = append(cases, attendShape{n: n, past: 9, nHeads: 12, group: group, headDim: 4, alibi: group == 3})
		}
	}
	backends := append([]Backend{Scalar()}, challengers()...)
	for _, c := range cases {
		checkAttend(t, buildAttend(r, c), backends, fmt.Sprintf("%+v", c))
	}
}

// TestAttendWeightsUnderflow confirms that qScale 64 reaches the w == 0
// skip: some of the pair's softmax weights are exactly 0.
func TestAttendWeightsUnderflow(t *testing.T) {
	a := buildAttend(rng.NewString("backend/underflow"),
		attendShape{n: 1, past: 40, nHeads: 1, group: 1, headDim: 8, qScale: 64})
	var s []float32
	for _, sp := range a.Spans {
		for j := range sp.Pos {
			s = append(s, Dot(a.Q.Row(0), sp.K[j*a.Width:(j+1)*a.Width])*a.InvSqrt)
		}
	}
	Softmax(s)
	if !slices.Contains(s, 0) {
		t.Fatal("no softmax weight underflowed to 0")
	}
}

func TestSelect(t *testing.T) {
	for _, name := range Backends() {
		bk, err := Select(name)
		if err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		if bk.Name() != name {
			t.Fatalf("Select(%q).Name() = %q", name, bk.Name())
		}
	}
	for _, name := range []string{"", "auto"} {
		if _, err := Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
	}
	if _, err := Select("cuda"); err == nil {
		t.Fatal("Select(cuda) should fail")
	}
}

func TestAutoHonorsEnv(t *testing.T) {
	t.Setenv("PC_BACKEND", "scalar")
	if got := Auto().Name(); got != "scalar" {
		t.Fatalf("Auto() under PC_BACKEND=scalar = %q", got)
	}
	t.Setenv("PC_BACKEND", "parallel")
	if got := Auto().Name(); got != "parallel" {
		t.Fatalf("Auto() under PC_BACKEND=parallel = %q", got)
	}
}

// fold maps any fuzzer int onto [lo, hi].
func fold(x, lo, hi int) int {
	m := x % (hi - lo + 1)
	if m < 0 {
		m = -m
	}
	return lo + m
}

// FuzzBackendKernels drives MatVecT, OutputHead and AttendRowBlock across
// fuzzer-chosen shapes and worker counts, asserting bit-identity against
// the scalar reference (MatVecT, OutputHead) or the attention oracle.
// The corpus seeds cover the shard-boundary hazards (odd sizes, more
// workers than elements) and tile edges. Attention parameters are folded
// into range rather than skipped, so every input exercises the kernel.
func FuzzBackendKernels(f *testing.F) {
	f.Add(uint64(1), 7, 3, 2, 4, 1, 30, 1, 2, 8, 0, 0, false)
	f.Add(uint64(2), 1, 1, 1, 1, 8, 0, 1, 1, 4, 3, 5, true)
	f.Add(uint64(3), 65, 129, 3, 8, 9, 17, 2, 3, 6, 18, 20, false)
	f.Add(uint64(4), 16, 512, 2, 3, 19, 50, 3, 4, 16, 52, 60, true)
	f.Fuzz(func(t *testing.T, seed uint64, in, out, lanes, workers int,
		n, past, kvHeads, group, headDim, split0, split1 int, alibi bool) {
		if in < 1 || in > 512 || out < 1 || out > 512 || lanes < 1 || lanes > 8 || workers < 1 || workers > 16 {
			t.Skip()
		}
		r := rng.NewString(fmt.Sprintf("fuzz/%d/%d/%d/%d/%d", seed, in, out, lanes, workers))
		bk := NewParallel(workers)

		w := NewMatrix(in, out)
		h := make([]float32, in)
		fillSigned(r, w.Data)
		fillSigned(r, h)
		want := make([]float32, out)
		got := make([]float32, out)
		Scalar().MatVecT(want, w, h)
		bk.MatVecT(got, w, h)
		if i, ok := bitsEqual(want, got); !ok {
			t.Fatalf("MatVecT %dx%d workers=%d: bit mismatch at %d", in, out, workers, i)
		}

		emb := NewMatrix(out, in) // vocab=out, dim=in
		fillSigned(r, emb.Data)
		hs := make([][]float32, lanes)
		wantL := make([][]float32, lanes)
		gotL := make([][]float32, lanes)
		for k := range hs {
			hs[k] = make([]float32, in)
			fillSigned(r, hs[k])
			wantL[k] = make([]float32, out)
			gotL[k] = make([]float32, out)
		}
		Scalar().OutputHead(wantL, emb, hs)
		bk.OutputHead(gotL, emb, hs)
		for k := range wantL {
			if i, ok := bitsEqual(wantL[k], gotL[k]); !ok {
				t.Fatalf("OutputHead lane %d workers=%d: bit mismatch at %d", k, workers, i)
			}
		}

		sh := attendShape{
			n: fold(n, 1, 3*attendTile), past: fold(past, 0, 300),
			group: fold(group, 1, 6), headDim: fold(headDim, 1, 20), alibi: alibi,
		}
		sh.nHeads = fold(kvHeads, 1, 3) * sh.group
		rows := sh.past + sh.n
		sh.splits = []int{fold(split0, 0, rows), fold(split1, 0, rows)}
		checkAttend(t, buildAttend(r, sh), []Backend{Scalar(), bk}, fmt.Sprintf("%+v", sh))
	})
}
