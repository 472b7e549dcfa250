package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/tokenizer"
)

// The generator turns (seed, workload) into PML schemas, an unbounded
// request list and, for the open loop, an arrival schedule. Everything
// the server sees comes from here; nothing below reads the clock or any
// state but the seed, so one seed always yields byte-identical inputs.
// Sizes (module tokens, question tokens, output tokens, arrival counts)
// are fixed per workload: the seed changes which words and which
// modules, never how much work a request is.

// rng is splitmix64: small, fast, and ours, so the generated inputs do
// not move when the Go release or the repository's own rng package does.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// stream derives an independent generator for a labelled sub-sequence
// (one per module text, one per request index, one per arrival phase).
func stream(seed uint64, label string, i int) *rng {
	h := uint64(14695981039346656037)
	for j := 0; j < len(label); j++ {
		h = (h ^ uint64(label[j])) * 1099511628211
	}
	r := &rng{s: seed ^ h}
	r.s = r.next() + uint64(i)*0x9e3779b97f4a7c15
	return r
}

// lexicon is one word per word-token id. The repository's tokenizer
// hashes words into a small id range and decodes an id to the first word
// it saw with that id, so free text would make the decoded stream depend
// on encounter order. Drawing all text from a collision-free lexicon, and
// loading the same lexicon into every tokenizer before traffic, makes
// token text a bijection of token id: comparing streamed text is
// comparing tokens.
type lexicon struct {
	words []string       // collision-free, in discovery order
	vocab map[int]string // id -> word, the PUT /vocab payload
}

func newLexicon() *lexicon {
	tok := tokenizer.New(vocabSize)
	lx := &lexicon{vocab: make(map[int]string)}
	want := vocabSize - tokenizer.WordBase
	const cons, vows = "bdfgklmnprstvz", "aeiou"
	for i := 0; len(lx.words) < want && i < 64*want; i++ {
		var sb strings.Builder
		for n := i + len(cons)*len(vows); n > 0; {
			sb.WriteByte(cons[n%len(cons)])
			n /= len(cons)
			sb.WriteByte(vows[n%len(vows)])
			n /= len(vows)
		}
		w := sb.String()
		id := tok.Encode(w)[0]
		if _, taken := lx.vocab[id]; !taken {
			lx.vocab[id] = w
			lx.words = append(lx.words, w)
		}
	}
	return lx
}

func (lx *lexicon) text(r *rng, n int) string {
	words := make([]string, n)
	for i := range words {
		words[i] = lx.words[r.intn(len(lx.words))]
	}
	return strings.Join(words, " ")
}

// request is one generated operation. Class names the traffic type
// (doc_qa, chat, decode) or "register" for a POST /schemas.
type request struct {
	Index     int    `json:"index"`
	Class     string `json:"class"`
	Path      string `json:"path"`
	Prompt    string `json:"prompt,omitempty"`
	PML       string `json:"pml,omitempty"`
	MaxTokens int    `json:"max_tokens,omitempty"`
	Imports   int    `json:"imports,omitempty"`
}

// body is the JSON the server receives for the request.
func (q request) body() []byte {
	var v any
	if q.Class == classRegister {
		v = map[string]string{"pml": q.PML}
	} else {
		// stop_token -1 can never be sampled, so every reply is exactly
		// max_tokens long.
		v = map[string]any{"prompt": q.Prompt, "max_tokens": q.MaxTokens, "stop_token": -1}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

const (
	classDocQA    = "doc_qa"
	classChat     = "chat"
	classDecode   = "decode"
	classRegister = "register"
)

// generator produces one workload's inputs.
type generator struct {
	seed uint64
	wl   *workloadSpec
	lx   *lexicon
}

func newGenerator(seed uint64, wl *workloadSpec, lx *lexicon) *generator {
	return &generator{seed: seed, wl: wl, lx: lx}
}

func moduleSchema(name string, modules []string, texts []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<schema name=%q>\n", name)
	for i, m := range modules {
		fmt.Fprintf(&sb, "  <module name=%q>%s</module>\n", m, texts[i])
	}
	sb.WriteString("</schema>\n")
	return sb.String()
}

// schemas returns the PML sources registered during set-up.
func (g *generator) schemas() []string {
	var out []string
	for _, t := range g.wl.traffic {
		names := make([]string, t.modules)
		texts := make([]string, t.modules)
		for i := range names {
			names[i] = fmt.Sprintf("%s%d", t.class, i)
			texts[i] = g.lx.text(stream(g.seed, t.stream+"/module", i), t.moduleTokens)
		}
		out = append(out, moduleSchema(t.class, names, texts))
	}
	if g.wl.registerEvery > 0 {
		out = append(out, g.scratchSchema(-1))
	}
	return out
}

// scratchSchema is the small schema tiered.churn keeps replacing; i
// selects the replacement's text.
func (g *generator) scratchSchema(i int) string {
	return moduleSchema("scratch", []string{"scratch0"},
		[]string{g.lx.text(stream(g.seed, g.wl.name+"/scratch", i), scratchTokens)})
}

// trafficFor picks request i's traffic type. A single-type workload has
// one; mixed.open deals each block of mixBlock requests in exact
// proportion and shuffles within the block, so every seed offers the
// same mix.
func (g *generator) trafficFor(i int) *traffic {
	ts := g.wl.traffic
	if len(ts) == 1 {
		return &ts[0]
	}
	block := make([]int, 0, mixBlock)
	for k, t := range ts {
		for n := 0; n < t.perBlock; n++ {
			block = append(block, k)
		}
	}
	r := stream(g.seed, g.wl.name+"/mix", i/mixBlock)
	for j := len(block) - 1; j > 0; j-- {
		k := r.intn(j + 1)
		block[j], block[k] = block[k], block[j]
	}
	return &ts[block[i%mixBlock]]
}

// request returns operation i of the workload: a pure function of
// (seed, workload, i), so clients draw indices from a shared counter and
// any prefix can be dumped or replayed.
func (g *generator) request(i int) request {
	if g.wl.registerEvery > 0 && i%g.wl.registerEvery == g.wl.registerEvery-1 {
		return request{Index: i, Class: classRegister, Path: "/schemas", PML: g.scratchSchema(i)}
	}
	t := g.trafficFor(i)
	r := stream(g.seed, t.stream+"/request", i)
	picked := g.pickModules(r, t)
	var sb strings.Builder
	fmt.Fprintf(&sb, "<prompt schema=%q>", t.class)
	for _, m := range picked {
		fmt.Fprintf(&sb, "<%s%d/>", t.class, m)
	}
	fmt.Fprintf(&sb, "<user>%s</user></prompt>", g.lx.text(r, t.questionTokens))
	return request{
		Index: i, Class: t.class, Path: "/v1/stream",
		Prompt: sb.String(), MaxTokens: t.outputTokens, Imports: len(picked),
	}
}

// pickModules draws t.imports distinct modules, uniformly or by Zipf
// popularity, in schema order (modules occupy fixed position ranges).
func (g *generator) pickModules(r *rng, t *traffic) []int {
	seen := make(map[int]bool, t.imports)
	for len(seen) < t.imports {
		if t.zipf > 0 {
			seen[zipfDraw(r, t.modules, t.zipf)] = true
		} else {
			seen[r.intn(t.modules)] = true
		}
	}
	picked := make([]int, 0, len(seen))
	for m := range seen {
		picked = append(picked, m)
	}
	sort.Ints(picked)
	return picked
}

// zipfDraw samples rank k in [0,n) with probability ∝ 1/(k+1)^s.
func zipfDraw(r *rng, n int, s float64) int {
	total := 0.0
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
	}
	u := r.float() * total
	for k := 1; k <= n; k++ {
		u -= math.Pow(float64(k), -s)
		if u < 0 {
			return k - 1
		}
	}
	return n - 1
}

// arrivals returns phase p's due times as offsets from the phase start:
// rate×duration arrivals at sorted uniform instants — a Poisson process
// conditioned on its count, so every seed offers exactly the same load
// and only the burst pattern varies.
func (g *generator) arrivals(p int, rate int, d time.Duration) []time.Duration {
	n := int(math.Round(float64(rate) * d.Seconds()))
	r := stream(g.seed, g.wl.name+"/arrivals", p)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.float() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dumpInputs writes the schemas, the first n requests and the arrival
// schedule of a workload under dir, for inspection and for the
// determinism test.
func (g *generator) dumpInputs(dir string, n int, window time.Duration) error {
	type dump struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Schemas  []string          `json:"schemas"`
		Requests []request         `json:"requests"`
		Arrivals [][]time.Duration `json:"arrivals_ns,omitempty"`
		Rates    []int             `json:"rates_rps,omitempty"`
	}
	d := dump{Workload: g.wl.name, Seed: g.seed, Schemas: g.schemas(), Rates: g.wl.rates}
	for i := 0; i < n; i++ {
		d.Requests = append(d.Requests, g.request(i))
	}
	for p, rate := range g.wl.rates {
		d.Arrivals = append(d.Arrivals, g.arrivals(p, rate, window/time.Duration(len(g.wl.rates))))
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, g.wl.name+".json"), b, 0o644)
}
