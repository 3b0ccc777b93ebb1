package meter

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"wile/internal/energy"
	"wile/internal/sim"
	"wile/internal/units"
)

// fixedSteps is a probe over a step history fixed in advance.
type fixedSteps []energy.Step

func (f fixedSteps) Steps() []energy.Step { return f }

// BenchmarkMeterStop times Stop on a Figure-3-sized record: 60 device
// steps at random instants of a 2-second window, read at 50 kSa/s into
// 100,001 Samples. Every op re-arms one meter at its start instant, so it
// reads the step history and expands it into the Samples capacity the
// first Stop left: an op allocates nothing and touches no pool, and both
// samples/op and allocs/op are exact.
func BenchmarkMeterStop(b *testing.B) {
	const window = 2 * sim.Second
	levels := []units.Amps{10e-6, 0.020, 0.035, 0.062, 0.100, 0.180}
	rng := rand.New(rand.NewSource(1))
	steps := make(fixedSteps, 60)
	for i := range steps {
		steps[i] = energy.Step{At: sim.Time(rng.Int63n(int64(window))), Current: levels[rng.Intn(len(levels))]}
	}
	slices.SortFunc(steps, func(x, y energy.Step) int { return cmp.Compare(x.At, y.At) })
	s := sim.New()
	m := New(s, steps, DefaultSampleRate)
	m.Start()
	s.RunUntil(window)
	m.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.running = true
		m.Stop()
	}
	b.ReportMetric(float64(len(m.Samples)), "samples/op")
}
