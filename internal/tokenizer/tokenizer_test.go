package tokenizer

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterministicEncoding(t *testing.T) {
	tk := New(4096)
	a := tk.Encode("the quick brown fox")
	b := tk.Encode("the quick brown fox")
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical text produced different tokens")
		}
	}
}

func TestSameTextSameTokensAcrossInstances(t *testing.T) {
	// Prompt Cache requires that schema text tokenized at encode time
	// matches prompt text tokenized at serve time, even across processes.
	a := New(4096).Encode("system message: be helpful")
	b := New(4096).Encode("system message: be helpful")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("token assignment not stable across instances")
		}
	}
}

func TestWhitespaceInsensitivity(t *testing.T) {
	tk := New(4096)
	a := tk.Encode("hello   world")
	b := tk.Encode("hello world")
	c := tk.Encode(" hello\nworld\t")
	if len(a) != 2 || len(b) != 2 || len(c) != 2 {
		t.Fatalf("unexpected lengths %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] || b[i] != c[i] {
			t.Fatal("whitespace changed token ids")
		}
	}
}

func TestCaseFolding(t *testing.T) {
	tk := New(4096)
	if tk.Encode("Hello")[0] != tk.Encode("hello")[0] {
		t.Fatal("case should fold")
	}
}

func TestPunctuationByteFallback(t *testing.T) {
	tk := New(4096)
	ids := tk.Encode("a,b")
	if len(ids) != 3 {
		t.Fatalf("want 3 tokens, got %d", len(ids))
	}
	if ids[1] != ByteBase+int(',') {
		t.Fatalf("comma should be byte token, got %d", ids[1])
	}
}

func TestUnicodeByteFallback(t *testing.T) {
	tk := New(4096)
	ids := tk.Encode("…") // U+2026, 3 UTF-8 bytes
	if len(ids) != 3 {
		t.Fatalf("ellipsis should be 3 byte tokens, got %d", len(ids))
	}
	for _, id := range ids {
		if id < ByteBase || id >= WordBase {
			t.Fatalf("id %d outside byte range", id)
		}
	}
}

func TestIDsInRange(t *testing.T) {
	tk := New(600)
	check := func(s string) bool {
		for _, id := range tk.Encode(s) {
			if id < 0 || id >= tk.vocabSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRoundTripWords(t *testing.T) {
	tk := New(65536)
	text := "the quick brown fox jumps over the lazy dog"
	got := tk.Decode(tk.Encode(text))
	if got != text {
		t.Fatalf("round trip: %q -> %q", text, got)
	}
}

func TestDecodePunctuationAttaches(t *testing.T) {
	tk := New(65536)
	got := tk.Decode(tk.Encode("hello, world"))
	if got != "hello, world" {
		t.Fatalf("got %q", got)
	}
}

func TestDecodeSpecials(t *testing.T) {
	tk := New(4096)
	got := tk.Decode([]int{BosID, InstOpenID, InstCloseID, EosID})
	want := "<s> [INST] [/INST] </s>"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestDecodeUnknownWordID(t *testing.T) {
	tk := New(4096)
	got := tk.Decode([]int{WordBase + 5})
	if got == "" || strings.ContainsAny(got, "⟨⟩ ") {
		t.Fatalf("unknown id should render one pseudo-word, got %q", got)
	}
	// Deterministic and id-dependent.
	if tk.Decode([]int{WordBase + 5}) != got {
		t.Fatal("pseudo-word not deterministic")
	}
	if tk.Decode([]int{WordBase + 6}) == got {
		t.Fatal("distinct ids should differ")
	}
}

func TestDecodeBadID(t *testing.T) {
	tk := New(4096)
	got := tk.Decode([]int{-1, 1 << 20})
	if !strings.Contains(got, "bad") {
		t.Fatalf("out-of-range ids should render bad placeholder, got %q", got)
	}
}

func TestUnkRun(t *testing.T) {
	ids := UnkRun(4)
	if len(ids) != 4 {
		t.Fatalf("len = %d", len(ids))
	}
	for _, id := range ids {
		if id != UnkID {
			t.Fatalf("id = %d, want UnkID", id)
		}
	}
}

func TestSmallVocabPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tiny vocab")
		}
	}()
	New(10)
}

func TestEmptyText(t *testing.T) {
	tk := New(4096)
	if got := tk.Encode(""); len(got) != 0 {
		t.Fatalf("empty text should produce no tokens, got %v", got)
	}
	if got := tk.Decode(nil); got != "" {
		t.Fatalf("decoding nothing should be empty, got %q", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	tk := New(4096)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				ids := tk.Encode("concurrent stress test words alpha beta gamma")
				_ = tk.Decode(ids)
				_ = w
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func TestVocabSaveLoad(t *testing.T) {
	a := New(65536)
	text := "the archive keeps railway records"
	ids := a.Encode(text)
	var buf strings.Builder
	if err := a.SaveVocab(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh tokenizer that never Encoded the text decodes it correctly
	// after loading the vocab.
	b := New(65536)
	if err := b.LoadVocab(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if got := b.Decode(ids); got != text {
		t.Fatalf("decoded %q, want %q", got, text)
	}
}

func TestVocabLoadSkipsBadEntries(t *testing.T) {
	tk := New(WordBase + 16)
	payload := `{"1": "special-range", "99999999": "out-of-range", "` +
		// a valid in-range id
		`` + "262" + `": ""}`
	if err := tk.LoadVocab(strings.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	// Special-range entry ignored: id 1 still decodes as <unk>.
	if got := tk.Decode([]int{1}); got != "<unk>" {
		t.Fatalf("special id decoded as %q", got)
	}
}

func TestVocabLoadBadJSON(t *testing.T) {
	tk := New(4096)
	if err := tk.LoadVocab(strings.NewReader("{broken")); err == nil {
		t.Fatal("bad JSON should fail")
	}
}

func TestVocabFirstObservationWins(t *testing.T) {
	tk := New(65536)
	ids := tk.Encode("harbor")
	var buf strings.Builder
	if err := tk.SaveVocab(&buf); err != nil {
		t.Fatal(err)
	}
	// Craft a vocab mapping the same id to another word; load must not
	// override the learned one.
	other := strings.Replace(buf.String(), "harbor", "castle", 1)
	if err := tk.LoadVocab(strings.NewReader(other)); err != nil {
		t.Fatal(err)
	}
	if got := tk.Decode(ids); got != "harbor" {
		t.Fatalf("decode = %q, want harbor", got)
	}
}

func BenchmarkEncode(b *testing.B) {
	tk := New(65536)
	text := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Encode(text)
	}
}
