package kvcache

import (
	"testing"
)

func TestSeqViewsAndTail(t *testing.T) {
	a := New(2, 4, 8)
	fill(a, 5, 0, 100)
	b := New(2, 4, 8)
	fill(b, 3, 10, 200)

	s := NewSeq(2, 4, 4)
	s.AddView(a, 0, 5)
	s.AddView(b, 1, 3) // rows at positions 11, 12
	if s.Len() != 7 || s.ViewLen() != 7 || len(s.wins) != 2 {
		t.Fatalf("len=%d viewLen=%d segs=%d", s.Len(), s.ViewLen(), len(s.wins))
	}
	if s.Positions()[0] != 0 || s.Positions()[4] != 4 || s.Positions()[5] != 11 || s.Positions()[6] != 12 {
		t.Fatalf("positions: %v", s.Positions())
	}
	if s.MaxPos() != 12 {
		t.Fatalf("MaxPos = %d", s.MaxPos())
	}
	// Views must alias, not copy.
	if &s.KeyRow(1, 0)[0] != &a.KeyRow(1, 0)[0] {
		t.Fatal("KeyRow does not alias the source cache")
	}
	if &s.KeyRow(0, 5)[0] != &b.KeyRow(0, 1)[0] {
		t.Fatal("windowed KeyRow offset wrong")
	}

	// Tail appends extend past the views.
	row := []float32{1, 2, 3, 4}
	for l := 0; l < 2; l++ {
		s.AppendToken(l, row, row)
	}
	s.AppendPos(20)
	if s.Len() != 8 || s.MaxPos() != 20 || s.Positions()[7] != 20 {
		t.Fatalf("after tail append: len=%d maxPos=%d", s.Len(), s.MaxPos())
	}

	// Segment walk covers views then tail, clamped by the row bound.
	segs := s.AppendSegments(nil, 0, 8)
	if len(segs) != 3 || len(segs[0].Pos) != 5 || len(segs[1].Pos) != 2 || len(segs[2].Pos) != 1 {
		t.Fatalf("segments: %d", len(segs))
	}
	segs = s.AppendSegments(nil, 0, 6)
	if len(segs) != 2 || len(segs[1].Pos) != 1 {
		t.Fatalf("bounded segments wrong: %d", len(segs))
	}

	// Truncate within the tail works; into the views panics.
	s.Truncate(7)
	if s.Len() != 7 {
		t.Fatalf("len after truncate = %d", s.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Truncate into views did not panic")
		}
	}()
	s.Truncate(3)
}

func TestSeqMergesAdjacentWindows(t *testing.T) {
	a := New(1, 2, 8)
	fill(a, 6, 0, 0)
	s := NewSeq(1, 2, 2)
	s.AddView(a, 0, 2)
	s.AddView(a, 2, 5) // contiguous in the same source: one segment
	if len(s.wins) != 1 || s.ViewLen() != 5 {
		t.Fatalf("segs=%d viewLen=%d, want merged 1/5", len(s.wins), s.ViewLen())
	}
	s.AddView(a, 5, 5) // empty: dropped
	if len(s.wins) != 1 {
		t.Fatalf("empty window created a segment")
	}
}

func TestSeqMaterializeMatches(t *testing.T) {
	a := New(2, 4, 8)
	fill(a, 4, 0, 10)
	b := New(2, 4, 8)
	fill(b, 4, 7, 50)

	s := NewSeq(2, 4, 4)
	s.AddView(a, 1, 4)
	s.AddView(b, 0, 2)
	row := []float32{9, 9, 9, 9}
	for l := 0; l < 2; l++ {
		s.AppendToken(l, row, row)
	}
	s.AppendPos(30)

	flat := s.Materialize()
	if flat.Len() != s.Len() {
		t.Fatalf("materialized len %d != %d", flat.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if flat.Pos[i] != s.Positions()[i] {
			t.Fatalf("pos[%d]: %d != %d", i, flat.Pos[i], s.Positions()[i])
		}
		for l := 0; l < 2; l++ {
			kc, ks := flat.KeyRow(l, i), s.KeyRow(l, i)
			for j := range kc {
				if kc[j] != ks[j] {
					t.Fatalf("key[%d][%d] differs", l, i)
				}
			}
			// Materialize owns its storage.
			if &kc[0] == &ks[0] {
				t.Fatal("materialized cache aliases the view")
			}
		}
	}
	// The flat copy supports arbitrary truncation.
	flat.Truncate(1)
}
