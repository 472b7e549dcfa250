package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func eq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestF1Identical(t *testing.T) {
	if !eq(F1("the cat sat", "the cat sat"), 1) {
		t.Fatal("identical strings should score 1")
	}
}

func TestF1Disjoint(t *testing.T) {
	if !eq(F1("alpha beta", "gamma delta"), 0) {
		t.Fatal("disjoint strings should score 0")
	}
}

func TestF1Partial(t *testing.T) {
	// prediction: 2 tokens, 1 common; reference: 2 tokens.
	// precision=0.5, recall=0.5 → F1=0.5
	if got := F1("the cat", "the dog"); !eq(got, 0.5) {
		t.Fatalf("F1 = %v, want 0.5", got)
	}
}

func TestF1CaseAndPunctuation(t *testing.T) {
	if !eq(F1("The CAT!", "the cat"), 1) {
		t.Fatal("normalization should ignore case/punct")
	}
}

func TestF1Empty(t *testing.T) {
	if !eq(F1("", ""), 1) {
		t.Fatal("both empty = 1")
	}
	if !eq(F1("", "ref"), 0) || !eq(F1("pred", ""), 0) {
		t.Fatal("one empty = 0")
	}
}

func TestF1MultisetClipping(t *testing.T) {
	// "a a a" vs "a": common clipped to 1.
	// precision=1/3, recall=1 → F1 = 0.5
	if got := F1("a a a", "a"); !eq(got, 0.5) {
		t.Fatalf("F1 = %v, want 0.5", got)
	}
}

func TestF1Range(t *testing.T) {
	check := func(a, b string) bool {
		f := F1(a, b)
		return f >= 0 && f <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestF1Symmetry(t *testing.T) {
	// F1 is symmetric under swapping prediction/reference.
	check := func(a, b string) bool {
		return eq(F1(a, b), F1(b, a))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRougeLIdentical(t *testing.T) {
	if !eq(RougeL("one two three", "one two three"), 1) {
		t.Fatal("identical = 1")
	}
}

func TestRougeLSubsequence(t *testing.T) {
	got := RougeL("one two three four", "one three")
	if got <= 0 || got >= 1 {
		t.Fatalf("RougeL = %v, want in (0,1)", got)
	}
}

func TestRougeLOrderSensitive(t *testing.T) {
	// LCS rewards order preservation: scrambled prediction scores lower.
	inOrder := RougeL("alpha beta gamma delta", "alpha beta gamma delta")
	scrambled := RougeL("delta gamma beta alpha", "alpha beta gamma delta")
	if scrambled >= inOrder {
		t.Fatalf("scrambled %v should score below in-order %v", scrambled, inOrder)
	}
}

func TestRougeLEmpty(t *testing.T) {
	if !eq(RougeL("", ""), 1) || !eq(RougeL("x", ""), 0) || !eq(RougeL("", "x"), 0) {
		t.Fatal("empty handling")
	}
}

func TestLCS(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{[]string{"a", "b", "c"}, []string{"a", "c"}, 2},
		{[]string{"a"}, []string{"b"}, 0},
		{[]string{"x", "y", "z"}, []string{"x", "y", "z"}, 3},
		{[]string{"a", "b", "a", "b"}, []string{"b", "a", "b", "a"}, 3},
	}
	for _, c := range cases {
		if got := lcs(c.a, c.b); got != c.want {
			t.Fatalf("lcs(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	if !eq(Contains("the answer is passage four here", "passage four"), 1) {
		t.Fatal("Contains should find subsequence")
	}
	if !eq(Contains("the answer is passage five", "passage four"), 0) {
		t.Fatal("Contains false positive")
	}
	if !eq(Contains("short", "a much longer reference"), 0) {
		t.Fatal("Contains length")
	}
	if !eq(Contains("anything", ""), 1) {
		t.Fatal("empty reference contained trivially")
	}
}

func TestEditSim(t *testing.T) {
	if !eq(EditSim("abc", "abc"), 1) {
		t.Fatal("identical = 1")
	}
	if !eq(EditSim("", ""), 1) {
		t.Fatal("both empty = 1")
	}
	if !eq(EditSim("abc", ""), 0) {
		t.Fatal("vs empty = 0")
	}
	// One substitution in three chars → 1 - 1/3.
	if got := EditSim("abc", "axc"); !eq(got, 1-1.0/3) {
		t.Fatalf("EditSim = %v", got)
	}
	// Insertion: kitten→sitting classic distance 3, max len 7.
	if got := EditSim("kitten", "sitting"); !eq(got, 1-3.0/7) {
		t.Fatalf("EditSim kitten/sitting = %v", got)
	}
}

func TestEditSimRangeAndSymmetry(t *testing.T) {
	check := func(a, b string) bool {
		v := EditSim(a, b)
		return v >= 0 && v <= 1 && eq(v, EditSim(b, a))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"abc", "abc", 0},
		{"flaw", "lawn", 2}, {"gumbo", "gambol", 2},
	}
	for _, c := range cases {
		if got := levenshtein([]rune(c.a), []rune(c.b)); got != c.want {
			t.Fatalf("lev(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !eq(Mean(xs), 5) {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty aggregates")
	}
}

func TestTokenOverlap(t *testing.T) {
	if !eq(TokenOverlap([]int{1, 2, 3}, []int{1, 2, 3}), 1) {
		t.Fatal("identical = 1")
	}
	if !eq(TokenOverlap([]int{1, 2}, []int{3, 4}), 0) {
		t.Fatal("disjoint = 0")
	}
	// {1,2} vs {2,3}: inter=1, union=3.
	if got := TokenOverlap([]int{1, 2}, []int{2, 3}); !eq(got, 1.0/3) {
		t.Fatalf("overlap = %v", got)
	}
	if !eq(TokenOverlap(nil, nil), 1) {
		t.Fatal("both empty = 1")
	}
}

func TestTokenOverlapRange(t *testing.T) {
	check := func(a, b []int) bool {
		v := TokenOverlap(a, b)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
