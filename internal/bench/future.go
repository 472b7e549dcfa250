package bench

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// Throughput runs §3.4/§5.4's batch-size argument through the analytic
// model: sharing module states across a batch admits more requests per
// HBM budget and lifts decode throughput.
func Throughput() *Report {
	d := hw.A100()
	m := hw.Llama7B()
	budget := int64(20) << 30
	rep := &Report{
		ID:     "throughput",
		Title:  "Batch decode throughput vs module sharing (A100, Llama2-7B, 2K-token prompts, 20 GiB KV budget)",
		Header: []string{"Shared fraction", "Batch size", "Tokens/s"},
		Notes: []string{
			"§3.4: 100 2K-token prompts sharing a 1K module halve the footprint and admit a ~2x batch.",
		},
	}
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		p := hw.ThroughputModel(d, m, 2000, f, budget)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.0f%%", f*100),
			fmt.Sprintf("%d", p.BatchSize),
			fmt.Sprintf("%.0f", p.TokensPerSec),
		})
	}
	return rep
}

// Quant runs the §6 compression experiment on the real engine through
// its one quantization seam, the disk codec: the doc module's blob size
// per codec, and how closely a snapshot saved int8 and reopened serves
// against the fp32-resident original.
func Quant() (*Report, error) {
	cfg := model.LlamaStyle(tokenizer.WordBase+2048, 616)
	m, err := model.New(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "pcbench-quant-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	full := promptcache.New(m, promptcache.WithDiskTier(dir, promptcache.CodecInt8))
	schema := EngineSchema("quant-doc", 384, 31)
	if _, err := full.RegisterSchema(schema); err != nil {
		return nil, err
	}
	prompt := `<prompt schema="quant-doc"><doc/><user>summarize the document briefly</user></prompt>`
	req := promptcache.Request{Prompt: prompt, Gen: promptcache.GenConfig{MaxTokens: 24}}
	ctx := context.Background()
	fres, err := full.Infer(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := full.SaveAll(dir); err != nil {
		return nil, err
	}
	int8c, err := promptcache.Open(m, dir)
	if err != nil {
		return nil, err
	}
	qres, err := int8c.Infer(ctx, req)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "quant",
		Title:  "int8/int4 disk codec vs fp32 (§6 compression direction, real engine)",
		Header: []string{"Quantity", "Value"},
	}
	// Blob sizes of the doc module's own states, per codec.
	layout, err := full.Engine().Layout("quant-doc")
	if err != nil {
		return nil, err
	}
	docTokens := layout.Modules["doc"].OwnTokens()
	probe := m.NewCache(docTokens)
	docToks, docPos := make([]int, 0, docTokens), make([]int, 0, docTokens)
	for _, seg := range layout.Modules["doc"].Segments {
		docToks = append(docToks, seg.Tokens...)
		docPos = append(docPos, seg.Pos...)
	}
	if _, err := m.Prefill(docToks, docPos, probe); err != nil {
		return nil, err
	}
	blob := map[quant.Codec]int64{}
	for _, codec := range []quant.Codec{quant.CodecFP32, quant.CodecInt8, quant.CodecInt4} {
		if blob[codec], err = quant.EncodeKV(io.Discard, probe, codec); err != nil {
			return nil, err
		}
	}
	ratio := func(codec quant.Codec) string {
		return fmt.Sprintf("%.2fx", float64(blob[quant.CodecFP32])/float64(blob[codec]))
	}
	rep.Rows = append(rep.Rows,
		[]string{"Doc blob bytes (fp32)", fmt.Sprintf("%d", blob[quant.CodecFP32])},
		[]string{"Doc blob bytes (int8)", fmt.Sprintf("%d", blob[quant.CodecInt8])},
		[]string{"Doc blob bytes (int4)", fmt.Sprintf("%d", blob[quant.CodecInt4])},
		[]string{"Compression ratio int8", ratio(quant.CodecInt8)},
		[]string{"Compression ratio int4", ratio(quant.CodecInt4)},
		[]string{"Modules served from the int8 snapshot", fmt.Sprintf("%d", int8c.Engine().Stats().DiskHits)},
		[]string{"Logit cosine int8 vs fp32", f3(tensor.CosineSimilarity(fres.Logits, qres.Logits))},
		[]string{"Generation overlap int8 vs fp32", f3(metrics.TokenOverlap(fres.Tokens, qres.Tokens))},
	)
	rep.Notes = append(rep.Notes,
		"The per-row scale and per-token position cost more at this model's narrow rows; at Llama-70B's 1024-wide K/V rows int8 is ~2x smaller than the paper's fp16 accounting, so Table 2's 2.5 MB/token row would drop to ~1.3 MB/token.",
	)
	return rep, nil
}
