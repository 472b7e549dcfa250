package bench

import "fmt"

// Experiment is one runnable entry of the registry: the id pcbench
// accepts, the one-line summary `pcbench list` prints, and the function
// that produces the report.
type Experiment struct {
	ID, Summary string
	// Variant marks a rerun of another id's experiment at a different
	// grid size; `pcbench all` skips it.
	Variant bool
	run     func() (*Report, error)
}

// pure adapts an experiment that cannot fail to the registry's signature.
func pure(f func() *Report) func() (*Report, error) {
	return func() (*Report, error) { return f(), nil }
}

// experiments is the one table Run, Experiments and pcbench derive from.
var experiments = []Experiment{
	{ID: "fig3", Summary: "GPU TTFT across 8 LongBench datasets × 3 GPUs (Figure 3)",
		run: func() (*Report, error) { return Fig3(false), nil }},
	{ID: "fig3-all", Summary: "Figure 3 over all 21 LongBench datasets (appendix)", Variant: true,
		run: func() (*Report, error) { return Fig3(true), nil }},
	{ID: "fig4", Summary: "CPU TTFT across 8 LongBench datasets × 2 CPUs (Figure 4)",
		run: func() (*Report, error) { return Fig4(false), nil }},
	{ID: "fig4-all", Summary: "Figure 4 over all 21 LongBench datasets (appendix)", Variant: true,
		run: func() (*Report, error) { return Fig4(true), nil }},
	{ID: "fig5", Summary: "Cache advantage vs sequence length (Figure 5)", run: pure(Fig5)},
	{ID: "fig6", Summary: "Code generation use case (Figure 6)", run: Fig6},
	{ID: "fig7", Summary: "Personalization use case (Figure 7)", run: Fig7},
	{ID: "fig8", Summary: "Parameterized prompts use case (Figure 8)", run: Fig8},
	{ID: "table1", Summary: "Accuracy baseline-vs-cached over 8 datasets × 4 models (Table 1)",
		run: func() (*Report, error) { return Table1(AccuracyConfig{Seed: 7}) }},
	{ID: "table1-quick", Summary: "Table 1 at reduced sample count", Variant: true,
		run: func() (*Report, error) {
			return Table1(AccuracyConfig{Seed: 7, Samples: 2, DocSentences: 5, MaxNewTokens: 10})
		}},
	{ID: "table1-all21", Summary: "Appendix accuracy over all 21 datasets, one model",
		run: func() (*Report, error) {
			return Table1Appendix(AccuracyConfig{Seed: 7, Samples: 2, DocSentences: 6, MaxNewTokens: 12})
		}},
	{ID: "table2", Summary: "Memory overhead per cached token (Table 2)", run: pure(Table2)},
	{ID: "sec54", Summary: "Model-size and end-to-end latency analysis (§5.4)", run: pure(Sec54)},
	{ID: "ablation-scaffold", Summary: "Masking effect vs scaffolding (§3.3)", run: AblationScaffold},
	{ID: "ablation-paged", Summary: "Batch memory with paged module sharing (§3.4)", run: pure(AblationPagedSharing)},
	{ID: "ablation-concat", Summary: "Buffered vs naive KV concatenation (§4.2)", run: pure(AblationConcat)},
	{ID: "ablation-masking", Summary: "Masking severity vs module granularity (§3.3)", run: AblationMasking},
	{ID: "engine", Summary: "Measured wall-clock TTFT on the Go engine (Fig. 5 shape)", run: EngineLatency},
	{ID: "engine-serving", Summary: "Measured Zipf trace replay with tiered cache on the engine", run: EngineServing},
	{ID: "quant", Summary: "int8 module-state compression vs fp32 (§6)", run: Quant},
	{ID: "throughput", Summary: "Batch throughput vs module sharing (§3.4/§5.4)", run: pure(Throughput)},
	{ID: "breakdown", Summary: "Cached TTFT cost decomposition (model inspection)", run: pure(Breakdown)},
}

// Experiments lists every runnable experiment in `pcbench list` order.
func Experiments() []Experiment { return experiments }

// Run executes an experiment by id.
func Run(id string) (*Report, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e.run()
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (see `pcbench list`)", id)
}
