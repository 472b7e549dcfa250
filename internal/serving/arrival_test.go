package serving

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestGenerateArrivalsDeterministicAndSorted(t *testing.T) {
	for _, dist := range ArrivalDists {
		a, err := GenerateArrivals(dist, 500, 200, 42)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		b, err := GenerateArrivals(dist, 500, 200, 42)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if len(a) != 500 {
			t.Fatalf("%s: got %d arrivals", dist, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at %d: %v vs %v", dist, i, a[i], b[i])
			}
			if a[i] < 0 || (i > 0 && a[i] < a[i-1]) {
				t.Fatalf("%s: arrivals not non-decreasing at %d: %v", dist, i, a[:i+1])
			}
		}
	}
}

// TestGenerateArrivalsMeanRate: every distribution must offer the same
// long-run rate — burstiness reshapes variance, not load.
func TestGenerateArrivalsMeanRate(t *testing.T) {
	const n, rate = 4000, 100.0
	want := float64(n) / rate // seconds
	for _, dist := range ArrivalDists {
		a, err := GenerateArrivals(dist, n, rate, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := a[n-1].Seconds()
		if math.Abs(got-want)/want > 0.25 {
			t.Errorf("%s: %d arrivals at %g/s span %.1fs, want ~%.1fs", dist, n, rate, got, want)
		}
	}
}

// TestGenerateArrivalsBurstiness orders the distributions by
// inter-arrival coefficient of variation: uniform (0) < poisson (~1) <
// bursty — the property that makes the bursty schedule an overload
// stressor at the same mean rate.
func TestGenerateArrivalsBurstiness(t *testing.T) {
	cv := func(dist string) float64 {
		a, err := GenerateArrivals(dist, 4000, 100, 99)
		if err != nil {
			t.Fatal(err)
		}
		gaps := make([]float64, len(a)-1)
		var mean float64
		for i := 1; i < len(a); i++ {
			gaps[i-1] = (a[i] - a[i-1]).Seconds()
			mean += gaps[i-1]
		}
		mean /= float64(len(gaps))
		var varsum float64
		for _, g := range gaps {
			varsum += (g - mean) * (g - mean)
		}
		return math.Sqrt(varsum/float64(len(gaps))) / mean
	}
	u, p, b := cv(ArrivalUniform), cv(ArrivalPoisson), cv(ArrivalBursty)
	if u > 0.01 {
		t.Errorf("uniform arrivals should have ~0 CV, got %.3f", u)
	}
	if p < 0.8 || p > 1.2 {
		t.Errorf("poisson CV should be ~1, got %.3f", p)
	}
	if b <= p*1.2 {
		t.Errorf("bursty CV (%.3f) should clearly exceed poisson (%.3f)", b, p)
	}
}

func TestGenerateArrivalsRejectsBadArgs(t *testing.T) {
	if _, err := GenerateArrivals("zipf", 10, 1, 0); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := GenerateArrivals(ArrivalPoisson, 0, 1, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GenerateArrivals(ArrivalPoisson, 10, 0, 0); err == nil {
		t.Error("rate=0 accepted")
	}
}

// TestAssignArrivalsRoundTrip: arrival offsets stamped onto a trace
// survive the JSONL round trip, so a load schedule can be checked in
// and replayed bit-identically.
func TestAssignArrivalsRoundTrip(t *testing.T) {
	trace := []Request{{Modules: []string{"a"}, Suffix: 8}, {Modules: []string{"b"}, Suffix: 9}}
	arrivals, err := GenerateArrivals(ArrivalPoisson, len(trace), 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignArrivals(trace, arrivals); err != nil {
		t.Fatal(err)
	}
	if err := AssignArrivals(trace, arrivals[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace {
		if got[i].ArrivalMS != trace[i].ArrivalMS {
			t.Fatalf("arrival %d lost in round trip: %v vs %v", i, got[i].ArrivalMS, trace[i].ArrivalMS)
		}
		if got[i].ArrivalMS != float64(arrivals[i])/float64(time.Millisecond) {
			t.Fatalf("arrival %d mis-stamped: %v", i, got[i].ArrivalMS)
		}
	}
}
