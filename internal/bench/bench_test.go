package bench

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig3ShapeAndBands(t *testing.T) {
	rep := Fig3(false)
	if len(rep.Rows) != 8*3 {
		t.Fatalf("rows = %d, want 24", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		base := parseCell(t, row[2])
		host := parseCell(t, row[3])
		local := parseCell(t, row[4])
		if !(local < host && host < base) {
			t.Fatalf("%s/%s: want local < host < baseline, got %v %v %v",
				row[0], row[1], local, host, base)
		}
		sHost := parseCell(t, row[5])
		sLocal := parseCell(t, row[6])
		// Paper bands (§5.2.1) with headroom: CPU-memory 1.5–3×,
		// GPU-memory 5–10×; TriviaQA's large uncached share sits lower.
		if sHost < 1.2 || sHost > 6 {
			t.Errorf("%s/%s: host speedup %.1f outside band", row[0], row[1], sHost)
		}
		if sLocal < 2.5 || sLocal > 35 {
			t.Errorf("%s/%s: local speedup %.1f outside band", row[0], row[1], sLocal)
		}
	}
}

func TestFig3AllCovers21(t *testing.T) {
	rep := Fig3(true)
	if len(rep.Rows) != 21*3 {
		t.Fatalf("rows = %d, want 63", len(rep.Rows))
	}
}

func TestFig4ShapeAndBands(t *testing.T) {
	rep := Fig4(false)
	if len(rep.Rows) != 8*2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	var bestIntel, bestAMD float64
	for _, row := range rep.Rows {
		s := parseCell(t, row[4])
		if s <= 1 {
			t.Fatalf("%s/%s: speedup %.1f <= 1", row[0], row[1], s)
		}
		if strings.Contains(row[1], "Intel") && s > bestIntel {
			bestIntel = s
		}
		if strings.Contains(row[1], "AMD") && s > bestAMD {
			bestAMD = s
		}
	}
	// §5.2.2: up to ~70× (Intel) and ~20× (AMD).
	if bestIntel < 40 || bestIntel > 100 {
		t.Errorf("best Intel speedup %.0f, paper up to ~70", bestIntel)
	}
	if bestAMD < 10 || bestAMD > 35 {
		t.Errorf("best AMD speedup %.0f, paper up to ~20", bestAMD)
	}
	if bestAMD >= bestIntel {
		t.Error("Intel should outgain AMD")
	}
}

func TestFig4TriviaQAHighestLatency(t *testing.T) {
	// §5.2.2: cached latency is highest for datasets with more uncached
	// prompt (TriviaQA).
	rep := Fig4(false)
	var trivia, maxOther float64
	for _, row := range rep.Rows {
		if !strings.Contains(row[1], "Intel") {
			continue
		}
		v := parseCell(t, row[3])
		if row[0] == "TriviaQA" {
			trivia = v
		} else if v > maxOther {
			maxOther = v
		}
	}
	if trivia <= maxOther {
		t.Fatalf("TriviaQA cached %.0f ms should exceed other datasets' max %.0f ms", trivia, maxOther)
	}
}

func TestFig5AdvantageWidens(t *testing.T) {
	rep := Fig5()
	// Per device, the advantage column must be monotone increasing in n.
	prev := map[string]float64{}
	prevN := map[string]int{}
	for _, row := range rep.Rows {
		dev := row[0]
		n, _ := strconv.Atoi(row[1])
		adv := parseCell(t, row[4])
		if pn, ok := prevN[dev]; ok {
			if n <= pn {
				t.Fatalf("rows out of order for %s", dev)
			}
			if adv <= prev[dev] {
				t.Fatalf("%s: advantage shrank %f -> %f at n=%d", dev, prev[dev], adv, n)
			}
		}
		prev[dev] = adv
		prevN[dev] = n
	}
	// CPU advantage dominates GPU advantage at the top end (§5.4).
	var cpuTop, gpuTop float64
	for _, row := range rep.Rows {
		if row[1] != "8192" {
			continue
		}
		adv := parseCell(t, row[4])
		if strings.Contains(row[0], "Intel") {
			cpuTop = adv
		}
		if strings.Contains(row[0], "4090") {
			gpuTop = adv
		}
	}
	if cpuTop <= gpuTop {
		t.Fatalf("CPU top advantage %.0f should exceed GPU's %.0f", cpuTop, gpuTop)
	}
}

func TestTable2MatchesPaperColumn(t *testing.T) {
	rep := Table2()
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		got := parseCell(t, row[1])
		want := parseCell(t, row[2])
		if want == 0 {
			continue
		}
		// Relative band plus the paper's two-decimal rounding grain
		// (BERT prints 0.04 vs the paper's 0.03).
		if d := (got - want) / want; (d > 0.18 || d < -0.18) && got-want > 0.015 {
			t.Errorf("%s: %.2f vs paper %.2f", row[0], got, want)
		}
	}
}

func TestSec54Rows(t *testing.T) {
	rep := Sec54()
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	vals := map[string]float64{}
	for _, row := range rep.Rows {
		vals[row[0]] = parseCell(t, row[1])
	}
	if vals["Cached delta 7B→13B (ms, paper ~30)"] >= vals["Baseline delta 7B→13B (ms, paper ~220)"] {
		t.Fatal("cached delta should be far below baseline delta")
	}
	dec := vals["Decode TTST @3K (ms/token, paper ~32)"]
	if dec < 20 || dec > 45 {
		t.Errorf("decode %.1f ms, paper ~32", dec)
	}
}

func TestTable1QuickPairedScores(t *testing.T) {
	rep, err := Table1(AccuracyConfig{Seed: 5, Samples: 2, DocSentences: 4, MaxNewTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8*4 {
		t.Fatalf("rows = %d, want 32", len(rep.Rows))
	}
	var diffs, cosines []float64
	for _, row := range rep.Rows {
		base := parseCell(t, row[3])
		cached := parseCell(t, row[4])
		cos := parseCell(t, row[5])
		if base < 0 || base > 1 || cached < 0 || cached > 1 {
			t.Fatalf("%s/%s: scores out of range", row[0], row[2])
		}
		d := base - cached
		if d < 0 {
			d = -d
		}
		diffs = append(diffs, d)
		cosines = append(cosines, cos)
	}
	// Table 1's claim: cached ≈ baseline. Averaged over the grid, the
	// paired gap must be small and the logit agreement high.
	var meanDiff, meanCos float64
	for i := range diffs {
		meanDiff += diffs[i]
		meanCos += cosines[i]
	}
	meanDiff /= float64(len(diffs))
	meanCos /= float64(len(cosines))
	t.Logf("mean |baseline-cached| = %.3f, mean logit cosine = %.3f", meanDiff, meanCos)
	if meanDiff > 0.25 {
		t.Errorf("mean paired score gap %.3f too large", meanDiff)
	}
	if meanCos < 0.6 {
		t.Errorf("mean logit cosine %.3f too low", meanCos)
	}
}

func TestUseCaseReports(t *testing.T) {
	for _, run := range []func() (*Report, error){Fig6, Fig7, Fig8} {
		rep, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) != 2 {
			t.Fatalf("%s rows = %d", rep.ID, len(rep.Rows))
		}
		for _, row := range rep.Rows {
			base := parseCell(t, row[1])
			cached := parseCell(t, row[2])
			if cached >= base {
				t.Errorf("%s %s: cached %.0f >= baseline %.0f", rep.ID, row[0], cached, base)
			}
			paperBase := parseCell(t, row[3])
			paperCached := parseCell(t, row[4])
			// Within ~3x of the paper's absolute numbers, and the win
			// direction must match.
			if base < paperBase/3 || base > paperBase*3 {
				t.Errorf("%s %s: baseline %.0f vs paper %.0f (out of 3x)", rep.ID, row[0], base, paperBase)
			}
			if cached < paperCached/4 || cached > paperCached*4 {
				t.Errorf("%s %s: cached %.0f vs paper %.0f (out of 4x)", rep.ID, row[0], cached, paperCached)
			}
		}
		if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[len(rep.Notes)-1], "overlap") {
			t.Errorf("%s: missing engine fidelity note", rep.ID)
		}
	}
}

func TestAblationScaffold(t *testing.T) {
	rep, err := AblationScaffold()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for i := 0; i < len(rep.Rows); i += 2 {
		scaff := parseCell(t, rep.Rows[i][2])
		indep := parseCell(t, rep.Rows[i+1][2])
		if scaff < 0.999 {
			t.Errorf("%s: scaffold cosine %.4f, want ~1", rep.Rows[i][0], scaff)
		}
		if indep >= scaff {
			t.Errorf("%s: independent cosine %.4f should be below scaffold's", rep.Rows[i+1][0], indep)
		}
	}
}

func TestAblationMaskingMonotone(t *testing.T) {
	rep, err := AblationMasking()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// 1 module is exact; cosine decreases (weakly) as granularity grows.
	first := parseCell(t, rep.Rows[0][1])
	if first < 0.999 {
		t.Fatalf("single module cosine %v, want ~1", first)
	}
	prev := first + 1e-9
	for _, row := range rep.Rows {
		cos := parseCell(t, row[1])
		if cos > prev+0.02 {
			t.Fatalf("masking severity not monotone: %v after %v", cos, prev)
		}
		prev = cos
	}
}

func TestAblationPagedSavesHalf(t *testing.T) {
	rep := AblationPagedSharing()
	savings := parseCell(t, rep.Rows[2][1])
	if savings < 45 || savings > 55 {
		t.Fatalf("savings %.0f%%, paper says ~50%%", savings)
	}
}

func TestAblationConcatQuadraticBlowup(t *testing.T) {
	rep := AblationConcat()
	rel := parseCell(t, rep.Rows[0][2])
	if rel < 8 {
		t.Fatalf("naive concat only %.1fx worse; expected quadratic blowup", rel)
	}
}

func TestTable1AppendixCovers21(t *testing.T) {
	rep, err := Table1Appendix(AccuracyConfig{Seed: 3, Samples: 1, DocSentences: 4, MaxNewTokens: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(rep.Rows))
	}
	cats := map[string]bool{}
	for _, row := range rep.Rows {
		cats[row[1]] = true
		if cos := parseCell(t, row[5]); cos < 0.2 || cos > 1.0 {
			t.Errorf("%s: cosine %v out of range", row[0], cos)
		}
	}
	if len(cats) != 6 {
		t.Fatalf("categories = %d", len(cats))
	}
}

func TestBreakdownComponentsSum(t *testing.T) {
	rep := Breakdown()
	vals := map[string]float64{}
	for _, row := range rep.Rows {
		vals[row[0]] = parseCell(t, row[1])
	}
	sumGPU := vals["Software overhead"] + vals["State copy (modules in GPU memory)"] + vals["Uncached suffix compute"]
	if tot := vals["Total cached TTFT (GPU memory)"]; absf(sumGPU-tot) > 0.5 {
		t.Fatalf("GPU components %.1f != total %.1f", sumGPU, tot)
	}
	sumCPU := vals["Software overhead"] + vals["State copy (modules in CPU memory)"] + vals["Uncached suffix compute"]
	if tot := vals["Total cached TTFT (CPU memory)"]; absf(sumCPU-tot) > 0.5 {
		t.Fatalf("CPU components %.1f != total %.1f", sumCPU, tot)
	}
	if vals["Baseline full prefill"] <= vals["Total cached TTFT (CPU memory)"] {
		t.Fatal("baseline should exceed every cached total")
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestThroughputExperimentMonotone(t *testing.T) {
	rep := Throughput()
	prev := 0.0
	for _, row := range rep.Rows {
		tps := parseCell(t, row[2])
		if tps < prev {
			t.Fatalf("throughput fell at %s", row[0])
		}
		prev = tps
	}
	first := parseCell(t, rep.Rows[0][1])
	last := parseCell(t, rep.Rows[len(rep.Rows)-1][1])
	if last < 2*first {
		t.Fatalf("batch should grow substantially with sharing: %v -> %v", first, last)
	}
}

func TestQuantExperiment(t *testing.T) {
	rep, err := Quant()
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]string{}
	for _, row := range rep.Rows {
		vals[row[0]] = row[1]
	}
	ratio := parseCell(t, vals["Compression ratio int8"])
	if ratio < 3.0 || ratio > 4.2 {
		t.Fatalf("int8 compression ratio %v, want ~3.8", ratio)
	}
	ratio4 := parseCell(t, vals["Compression ratio int4"])
	if ratio4 <= ratio || ratio4 > 7.5 {
		t.Fatalf("int4 ratio %v should exceed int8's %v (and stay <= 7.5)", ratio4, ratio)
	}
	if cos := parseCell(t, vals["Logit cosine int8 vs fp32"]); cos < 0.98 {
		t.Fatalf("int8 logit cosine %v too low", cos)
	}
}

// TestRunRegistry checks the table itself; each experiment's content has
// its own test above.
func TestRunRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Summary == "" || e.run == nil {
			t.Errorf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// Resolution runs the cheapest entry; the lookup is the same for all.
	if rep, err := Run("table2"); err != nil || rep.ID != "table2" {
		t.Fatalf("Run(table2) = %v, %v", rep, err)
	}
	if _, err := Run("bogus"); err == nil {
		t.Fatal("unknown id should error")
	}
}

// TestEngineLatencyShape: measured on this machine, cached serving beats
// the baseline at every document length and the advantage widens with
// length (Fig. 5's shape). The margins are ≥ 15×, so wall-clock is safe.
func TestEngineLatencyShape(t *testing.T) {
	rep, err := EngineLatency()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 || rep.Rows[0][0] != "128" || rep.Rows[3][0] != "1024" {
		t.Fatalf("rows = %v, want lengths 128..1024", rep.Rows)
	}
	for _, row := range rep.Rows {
		if base, cached := parseCell(t, row[1]), parseCell(t, row[2]); cached >= base {
			t.Errorf("%s tokens: cached %v ms not below baseline %v ms", row[0], cached, base)
		}
	}
	if short, long := parseCell(t, rep.Rows[0][3]), parseCell(t, rep.Rows[3][3]); long <= short {
		t.Errorf("advantage at 1024 tokens (%vx) should exceed 128 tokens (%vx)", long, short)
	}
}

// TestEngineServingShape: both Prompt Cache configurations replay the
// trace faster than serving it with no reuse.
func TestEngineServingShape(t *testing.T) {
	rep, err := EngineServing()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %v", rep.Rows)
	}
	noReuse := parseCell(t, rep.Rows[0][1])
	for _, row := range rep.Rows[1:] {
		if ms := parseCell(t, row[1]); ms >= noReuse {
			t.Errorf("%s: %v ms not below no-reuse %v ms", row[0], ms, noReuse)
		}
	}
}

func TestReportPrintAndCSV(t *testing.T) {
	rep := Table2()
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "table2") || !strings.Contains(out, "Llama 7B") {
		t.Fatalf("print output missing content:\n%s", out)
	}
	csv := rep.CSV()
	if !strings.HasPrefix(csv, "LLM,MB/token,Paper") {
		t.Fatalf("csv header wrong: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if strings.Count(csv, "\n") != 9 { // header + 8 rows
		t.Fatalf("csv lines = %d", strings.Count(csv, "\n"))
	}
}

// TestDeterministicReportsGolden pins the CSV of every report that runs
// only the analytic model (no engine, no wall clock): a refactor of
// internal/hw or of these experiments must leave each number unchanged.
// testdata/reports.golden.csv is `pcbench -csv` over the same ids.
func TestDeterministicReportsGolden(t *testing.T) {
	var got strings.Builder
	for _, id := range []string{"fig3", "fig4", "fig5", "table2", "sec54",
		"throughput", "breakdown", "ablation-paged", "ablation-concat"} {
		rep, err := Run(id)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(rep.CSV())
	}
	want, err := os.ReadFile("testdata/reports.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("reports differ from testdata/reports.golden.csv; got:\n%s", got.String())
	}
}
