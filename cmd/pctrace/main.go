// Command pctrace runs the two-tier serving simulator (§6 outlook):
// a Zipf request stream over a prompt-module universe, with a
// capacity-limited HBM tier in front of host DRAM and a pluggable
// replacement policy.
//
// Usage:
//
//	pctrace -requests 5000 -modules 80 -hbm-gib 4 -policy gdsf
//	pctrace -compare            # all policies + reference points
//	pctrace -record t.jsonl     # write the generated trace as JSONL
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/evict"
	"repro/internal/hw"
	"repro/internal/serving"
)

func main() {
	var (
		requests = flag.Int("requests", 2000, "requests to simulate")
		modules  = flag.Int("modules", 60, "modules in the universe")
		perReq   = flag.Int("per-request", 2, "modules imported per request")
		suffix   = flag.Int("suffix", 100, "uncached suffix tokens per request")
		zipf     = flag.Float64("zipf", 1.1, "Zipf skew of module popularity")
		hbmGiB   = flag.Float64("hbm-gib", 2, "HBM capacity for module states (GiB; 0 = host-only)")
		policy   = flag.String("policy", "lru", "replacement policy: lru, fifo, lfu, gdsf")
		device   = flag.String("device", "4090", "device: 4090, a40, a100, intel, amd")
		seed     = flag.Uint64("seed", 42, "stream seed")
		compare  = flag.Bool("compare", false, "compare all policies plus reference points")
		record   = flag.String("record", "", "write the generated request trace to this JSONL file")
		replay   = flag.String("replay", "", "replay a JSONL trace instead of generating a stream")
	)
	flag.Parse()

	var dev *hw.Device
	switch *device {
	case "4090":
		dev = hw.RTX4090()
	case "a40":
		dev = hw.A40()
	case "a100":
		dev = hw.A100()
	case "intel":
		dev = hw.IntelI9()
	case "amd":
		dev = hw.AMDRyzen9()
	default:
		log.Fatalf("pctrace: unknown device %q", *device)
	}
	base := serving.Config{
		Device:            dev,
		Model:             hw.Llama7B(),
		Modules:           serving.DefaultUniverse(*modules, 200, 4000, *seed+1),
		Requests:          *requests,
		ModulesPerRequest: *perReq,
		SuffixTokens:      *suffix,
		ZipfS:             *zipf,
		Seed:              *seed,
	}
	capacity := int64(*hbmGiB * (1 << 30))

	printStats := func(label string, st serving.Stats) {
		fmt.Printf("%-14s hit=%.3f mean=%8.1fms p50=%8.1fms p99=%8.1fms speedup=%5.1fx uploads=%.1fGiB\n",
			label, st.HitRate(),
			st.MeanTTFT.Seconds()*1e3, st.P50TTFT.Seconds()*1e3, st.P99TTFT.Seconds()*1e3,
			st.Speedup(), float64(st.BytesUploaded)/(1<<30))
	}

	if *compare {
		results, err := serving.ComparePolicies(base, capacity)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("device=%s hbm=%.1fGiB requests=%d zipf=%.2f\n", dev.Name, *hbmGiB, *requests, *zipf)
		for _, name := range append([]string{"unbounded-hbm"}, append(evict.Names(), "host-only")...) {
			printStats(name, results[name])
		}
		return
	}

	p, err := evict.New(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	base.GPUCapacity = capacity
	base.Policy = p

	var trace []serving.Request
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		trace, err = serving.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		trace, err = serving.GenerateTrace(base)
		if err != nil {
			log.Fatal(err)
		}
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := serving.WriteTrace(f, trace); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("recorded %d requests to %s\n", len(trace), *record)
		}
	}

	st, err := serving.RunTrace(base, trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device=%s policy=%s hbm=%.1fGiB\n", dev.Name, *policy, *hbmGiB)
	printStats(*policy, st)
	fmt.Printf("baseline (no reuse) mean TTFT: %.1f ms\n", st.BaselineMeanTTFT.Seconds()*1e3)
}
