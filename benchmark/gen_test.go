package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// dumpAll writes every workload's generated inputs for a seed and
// returns them by file name.
func dumpAll(t *testing.T, lx *lexicon, seed uint64) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	out := map[string][]byte{}
	for _, wl := range workloads(1) {
		if err := newGenerator(seed, wl, lx).dumpInputs(dir, 64, 6*time.Second); err != nil {
			t.Fatal(err)
		}
		name := wl.name + ".json"
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// The same seed must generate byte-identical schemas, requests and
// arrival schedules; a different seed must not.
func TestGeneratorDeterminism(t *testing.T) {
	lx := newLexicon()
	first, again, other := dumpAll(t, lx, 7), dumpAll(t, newLexicon(), 7), dumpAll(t, lx, 8)
	for name, b := range first {
		if !bytes.Equal(b, again[name]) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if bytes.Equal(b, other[name]) {
			t.Errorf("%s: a different seed generated the same inputs", name)
		}
	}
}

// decode.spec is judged against decode.long, so the two must receive
// the exact same schemas and requests.
func TestSpecSharesDecodeLongRequests(t *testing.T) {
	lx := newLexicon()
	long := newGenerator(7, workloadByName("decode.long", 1), lx)
	spec := newGenerator(7, workloadByName("decode.spec", 1), lx)
	if a, b := long.schemas(), spec.schemas(); len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatal("schemas differ")
	}
	for i := 0; i < 200; i++ {
		if a, b := long.request(i), spec.request(i); a != b {
			t.Fatalf("request %d differs:\n%+v\n%+v", i, a, b)
		}
	}
}

// Every lexicon word must own its token id, or streamed text would not
// identify tokens.
func TestLexiconIsCollisionFree(t *testing.T) {
	lx := newLexicon()
	if want := vocabSize - tokenBase; len(lx.words) != want || len(lx.vocab) != want {
		t.Fatalf("lexicon has %d words for %d ids, want %d", len(lx.words), len(lx.vocab), want)
	}
}

// mixed.open must offer the stated mix exactly, block by block.
func TestMixProportions(t *testing.T) {
	g := newGenerator(3, workloadByName("mixed.open", 1), newLexicon())
	counts := map[string]int{}
	for i := 0; i < 10*mixBlock; i++ {
		counts[g.request(i).Class]++
	}
	if counts[classDocQA] != 120 || counts[classChat] != 50 || counts[classDecode] != 30 {
		t.Fatalf("mix over 200 requests = %v, want 120/50/30", counts)
	}
}
