package bench

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/longbench"
)

// Fig3 regenerates Figure 3: GPU TTFT across LongBench datasets on the
// RTX 4090, A40 and A100, comparing the KV-cache baseline against Prompt
// Cache with modules in CPU memory and in GPU memory. Set all21 to cover
// the full appendix roster instead of the eight headline datasets.
func Fig3(all21 bool) *Report {
	datasets := longbench.Figure8()
	if all21 {
		datasets = longbench.All21()
	}
	m := hw.Llama7B()
	rep := &Report{
		ID:     "fig3",
		Title:  "GPU TTFT (ms), Llama2-7B, LongBench",
		Header: []string{"Dataset", "Device", "Baseline", "PC (CPU mem)", "PC (GPU mem)", "Speedup(CPU)", "Speedup(GPU)"},
		Notes: []string{
			"Prompt modules hold the documents; task directives stay uncached.",
			"Latencies from the calibrated analytic model (see internal/hw).",
		},
	}
	for _, d := range datasets {
		for _, dev := range hw.AllGPUs() {
			n := d.ContextTokens + d.TaskTokens
			base := hw.BaselineTTFT(dev, m, n)
			host := hw.CachedTTFT(dev, m, d.ContextTokens, d.TaskTokens, hw.FromHost)
			local := hw.CachedTTFT(dev, m, d.ContextTokens, d.TaskTokens, hw.FromLocal)
			rep.Rows = append(rep.Rows, []string{
				d.Name, dev.Name,
				ms(base.Seconds()), ms(host.Seconds()), ms(local.Seconds()),
				f1x(hw.Speedup(base, host)), f1x(hw.Speedup(base, local)),
			})
		}
	}
	return rep
}

// Fig4 regenerates Figure 4: CPU TTFT across LongBench datasets on the
// Intel i9-13900K (DDR5) and AMD Ryzen 9 7950X (DDR4).
func Fig4(all21 bool) *Report {
	datasets := longbench.Figure8()
	if all21 {
		datasets = longbench.All21()
	}
	m := hw.Llama7B()
	rep := &Report{
		ID:     "fig4",
		Title:  "CPU TTFT (ms), Llama2-7B, LongBench",
		Header: []string{"Dataset", "Device", "Baseline", "Prompt Cache", "Speedup"},
		Notes: []string{
			"CPU inference gains the most: attention compute dwarfs the host-to-host copy (§5.2.2).",
		},
	}
	for _, d := range datasets {
		for _, dev := range hw.AllCPUs() {
			n := d.ContextTokens + d.TaskTokens
			base := hw.BaselineTTFT(dev, m, n)
			cached := hw.CachedTTFT(dev, m, d.ContextTokens, d.TaskTokens, hw.FromLocal)
			rep.Rows = append(rep.Rows, []string{
				d.Name, dev.Name,
				ms(base.Seconds()), ms(cached.Seconds()),
				f1x(hw.Speedup(base, cached)),
			})
		}
	}
	return rep
}

// Fig5 regenerates Figure 5: cache advantage versus sequence length on a
// fully cached synthetic prompt — baseline attention grows quadratically
// while Prompt Cache's memory copy grows linearly, so the gap widens
// quadratically (§5.4).
func Fig5() *Report {
	m := hw.Llama7B()
	devices := []*hw.Device{hw.IntelI9(), hw.A40(), hw.RTX4090()}
	rep := &Report{
		ID:     "fig5",
		Title:  "Cache advantage vs sequence length (fully cached prompt, modules in CPU memory)",
		Header: []string{"Device", "SeqLen", "Baseline (ms)", "Prompt Cache (ms)", "Advantage"},
		Notes: []string{
			"GPUs load modules from CPU memory here, as in the paper's Fig. 5 setup.",
			"Memcpy anchors (5K tok, per layer): host-to-host 3.79 ms, host-to-device 5.34 ms, device-to-device 0.23 ms.",
		},
	}
	for _, dev := range devices {
		for _, n := range []int{512, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192} {
			base := hw.BaselineTTFT(dev, m, n)
			cached := hw.CachedTTFT(dev, m, n, 0, hw.FromHost)
			rep.Rows = append(rep.Rows, []string{
				dev.Name, fmt.Sprintf("%d", n),
				ms(base.Seconds()), ms(cached.Seconds()),
				f1x(hw.Speedup(base, cached)),
			})
		}
	}
	return rep
}

// Table2 regenerates Table 2: per-token memory overhead of cached
// attention states for eight published models at fp16.
func Table2() *Report {
	rep := &Report{
		ID:     "table2",
		Title:  "Memory overhead of caching a single token (fp16)",
		Header: []string{"LLM", "MB/token", "Paper"},
	}
	paper := []string{"0.03", "0.18", "0.50", "0.78", "1.31", "1.87", "2.5", "4.53"}
	for i, m := range hw.Table2Models() {
		rep.Rows = append(rep.Rows, []string{m.Name, fmt.Sprintf("%.2f", m.MBPerToken()), paper[i]})
	}
	return rep
}

// Breakdown decomposes a representative cached TTFT (RTX 4090, Llama2-7B,
// 5K cached + 300 uncached tokens) into its cost components, making the
// model behind Figs. 3–5 inspectable.
func Breakdown() *Report {
	d := hw.RTX4090()
	m := hw.Llama7B()
	const cached, uncached = 5000, 300
	rep := &Report{
		ID:     "breakdown",
		Title:  "Cached TTFT decomposition (RTX 4090, Llama2-7B, 5K cached + 300 new tokens)",
		Header: []string{"Component", "ms"},
	}
	copyLocal := d.Local.TransferTime(int64(cached) * m.BytesPerToken())
	copyHost := d.Upload.TransferTime(int64(cached) * m.BytesPerToken())
	suffix := m.SuffixFLOPs(uncached, cached+uncached) / d.EffFLOPs()
	base := hw.BaselineTTFT(d, m, cached+uncached)
	rep.Rows = append(rep.Rows,
		[]string{"Software overhead", ms(d.Overhead.Seconds())},
		[]string{"State copy (modules in GPU memory)", ms(copyLocal.Seconds())},
		[]string{"State copy (modules in CPU memory)", ms(copyHost.Seconds())},
		[]string{"Uncached suffix compute", ms(suffix)},
		[]string{"Total cached TTFT (GPU memory)", ms(hw.CachedTTFT(d, m, cached, uncached, hw.FromLocal).Seconds())},
		[]string{"Total cached TTFT (CPU memory)", ms(hw.CachedTTFT(d, m, cached, uncached, hw.FromHost).Seconds())},
		[]string{"Baseline full prefill", ms(base.Seconds())},
	)
	rep.Notes = append(rep.Notes,
		"The CPU-memory configuration is copy-dominated; the GPU-memory one is overhead+compute-dominated — exactly the Fig. 3 gap.",
	)
	return rep
}

// Sec54 regenerates §5.4's model-size and end-to-end analyses: the
// 7B→13B latency delta at 3K tokens, and TTFT vs per-token decode time.
func Sec54() *Report {
	d := hw.RTX4090()
	m7, m13 := hw.Llama7B(), hw.Llama13B()
	rep := &Report{
		ID:     "sec54",
		Title:  "Understanding latency improvements (RTX 4090)",
		Header: []string{"Quantity", "Value"},
	}
	b7 := hw.BaselineTTFT(d, m7, 3000)
	b13 := hw.BaselineTTFT(d, m13, 3000)
	c7 := hw.CachedTTFT(d, m7, 3000, 0, hw.FromLocal)
	c13 := hw.CachedTTFT(d, m13, 3000, 0, hw.FromLocal)
	rep.Rows = append(rep.Rows,
		[]string{"Baseline TTFT 7B @3K (ms)", ms(b7.Seconds())},
		[]string{"Baseline TTFT 13B @3K (ms)", ms(b13.Seconds())},
		[]string{"Baseline delta 7B→13B (ms, paper ~220)", ms((b13 - b7).Seconds())},
		[]string{"Cached delta 7B→13B (ms, paper ~30)", ms((c13 - c7).Seconds())},
		[]string{"Cached TTFT 7B @3K (ms, paper ~90)", ms(c7.Seconds())},
		[]string{"Decode TTST @3K (ms/token, paper ~32)", ms(hw.DecodeTime(d, m7, 3000).Seconds())},
	)
	rep.Notes = append(rep.Notes,
		"The paper's +220 ms baseline delta is below any fixed-MFU projection of its own 900 ms anchor.",
	)
	return rep
}
