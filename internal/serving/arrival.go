package serving

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
)

// Arrival-time distributions for recorded traces. A trace on its own
// fixes *what* arrives; an arrival process fixes *when*. `pctrace
// -record -arrival` stamps seeded arrival offsets onto a trace, so the
// same request stream can be scheduled gently (uniform), realistically
// (Poisson), or adversarially (bursty).
const (
	ArrivalUniform = "uniform" // evenly spaced at exactly the offered rate
	ArrivalPoisson = "poisson" // exponential inter-arrivals (memoryless)
	ArrivalBursty  = "bursty"  // on/off modulated Poisson: bursts + lulls
)

// ArrivalDists lists the supported distribution names.
var ArrivalDists = []string{ArrivalUniform, ArrivalPoisson, ArrivalBursty}

// Bursty arrivals are a two-phase modulated Poisson process: "on" phases
// arrive at burstFactor× the offered rate, separated by "off" lulls with
// no arrivals. Phase durations are exponential and sized so the
// long-run mean rate still equals ratePerSec — the burst factor shifts
// variance, not load.
const (
	burstFactor   = 4.0 // on-phase rate multiplier
	burstMeanSize = 8.0 // mean arrivals per on-phase
)

// GenerateArrivals returns n monotonically non-decreasing arrival
// offsets (relative to replay start) drawn from the named distribution
// at a long-run mean of ratePerSec. The stream is fully determined by
// (dist, n, ratePerSec, seed).
func GenerateArrivals(dist string, n int, ratePerSec float64, seed uint64) ([]time.Duration, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serving: arrivals need n > 0 (got %d)", n)
	}
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("serving: arrivals need rate > 0 (got %g)", ratePerSec)
	}
	r := rng.New(seed)
	// Exponential with the given mean; 1-U keeps the argument in (0,1].
	exp := func(mean float64) float64 { return -math.Log(1-r.Float64()) * mean }
	out := make([]time.Duration, n)
	t := 0.0 // seconds since replay start
	switch dist {
	case ArrivalUniform:
		gap := 1 / ratePerSec
		for i := range out {
			out[i] = time.Duration(t * float64(time.Second))
			t += gap
		}
	case ArrivalPoisson:
		for i := range out {
			t += exp(1 / ratePerSec)
			out[i] = time.Duration(t * float64(time.Second))
		}
	case ArrivalBursty:
		// On-phase at burstFactor×rate for ~burstMeanSize arrivals, then
		// an off lull long enough that the cycle's mean rate is
		// ratePerSec: offDur = onDur × (burstFactor - 1).
		onRate := ratePerSec * burstFactor
		left := 0 // arrivals remaining in the current on-phase
		for i := range out {
			if left == 0 {
				burst := 1 + int(exp(burstMeanSize-1))
				onDur := float64(burst) / onRate
				t += exp(onDur * (burstFactor - 1))
				left = burst
			}
			t += exp(1 / onRate)
			left--
			out[i] = time.Duration(t * float64(time.Second))
		}
	default:
		return nil, fmt.Errorf("serving: unknown arrival distribution %q (want %v)", dist, ArrivalDists)
	}
	return out, nil
}

// AssignArrivals stamps a trace with the given offsets so the schedule
// persists through WriteTrace/ReadTrace alongside the requests.
func AssignArrivals(trace []Request, arrivals []time.Duration) error {
	if len(trace) != len(arrivals) {
		return fmt.Errorf("serving: %d requests but %d arrivals", len(trace), len(arrivals))
	}
	for i := range trace {
		trace[i].ArrivalMS = float64(arrivals[i]) / float64(time.Millisecond)
	}
	return nil
}
