// Package metrics implements the evaluation metrics of the paper's
// Table 1 (§5.3): token-level F1 (the LongBench QA metric), Rouge-L (the
// summarization metric, longest-common-subsequence based), and exact-match
// accuracy (passage retrieval), plus small aggregation helpers.
package metrics

import (
	"strings"
)

// normalize lowercases and splits text into comparison tokens.
func normalize(s string) []string {
	var out []string
	for _, w := range strings.Fields(strings.ToLower(s)) {
		w = strings.Trim(w, ".,;:!?\"'()[]{}")
		if w != "" {
			out = append(out, w)
		}
	}
	return out
}

// F1 returns the token-level F1 overlap between a prediction and a
// reference, in [0, 1].
func F1(prediction, reference string) float64 {
	p := normalize(prediction)
	r := normalize(reference)
	if len(p) == 0 || len(r) == 0 {
		if len(p) == 0 && len(r) == 0 {
			return 1
		}
		return 0
	}
	counts := map[string]int{}
	for _, w := range r {
		counts[w]++
	}
	common := 0
	for _, w := range p {
		if counts[w] > 0 {
			counts[w]--
			common++
		}
	}
	if common == 0 {
		return 0
	}
	precision := float64(common) / float64(len(p))
	recall := float64(common) / float64(len(r))
	return 2 * precision * recall / (precision + recall)
}

// RougeL returns the Rouge-L F-measure (LCS-based) between a prediction
// and a reference, in [0, 1].
func RougeL(prediction, reference string) float64 {
	p := normalize(prediction)
	r := normalize(reference)
	if len(p) == 0 || len(r) == 0 {
		if len(p) == 0 && len(r) == 0 {
			return 1
		}
		return 0
	}
	l := lcs(p, r)
	if l == 0 {
		return 0
	}
	precision := float64(l) / float64(len(p))
	recall := float64(l) / float64(len(r))
	beta := 1.2
	return (1 + beta*beta) * precision * recall / (recall + beta*beta*precision)
}

// lcs returns the longest-common-subsequence length with O(min) memory.
func lcs(a, b []string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Contains returns 1 if the normalized reference appears as a contiguous
// subsequence of the normalized prediction (retrieval-style accuracy).
func Contains(prediction, reference string) float64 {
	p := normalize(prediction)
	r := normalize(reference)
	if len(r) == 0 {
		return 1
	}
	if len(p) < len(r) {
		return 0
	}
outer:
	for i := 0; i+len(r) <= len(p); i++ {
		for j := range r {
			if p[i+j] != r[j] {
				continue outer
			}
		}
		return 1
	}
	return 0
}

// EditSim returns the normalized character-level edit similarity
// 1 - levenshtein(a,b)/max(|a|,|b|), the metric LongBench uses for its
// code-completion datasets (LCC, RepoBench-P).
func EditSim(prediction, reference string) float64 {
	a, b := []rune(prediction), []rune(reference)
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	maxLen := len(a)
	if len(b) > maxLen {
		maxLen = len(b)
	}
	return 1 - float64(levenshtein(a, b))/float64(maxLen)
}

// levenshtein computes edit distance with O(min) memory.
func levenshtein(a, b []rune) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TokenOverlap returns |intersection| / |union| over token id multisets;
// a weight-free way to compare two generations of the same model.
func TokenOverlap(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	ca := map[int]int{}
	for _, t := range a {
		ca[t]++
	}
	inter := 0
	for _, t := range b {
		if ca[t] > 0 {
			ca[t]--
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
