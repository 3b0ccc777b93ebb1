package main

import (
	"crypto/sha1"
	"slices"
	"time"
)

// The probe is the benchmark's yardstick for host speed. For seconds to
// minutes at a time, the VM the benchmark was built on runs in a slow mode
// in which throughput-bound code takes 1.45x to 1.75x longer (README.md,
// "Host speed"). A run can stay in that mode from start to end, so the
// driver times the probe just before every op and set-up and reports host
// time at the reference speed: the measured time × probeRef / the probe's
// time.
//
// The probe is fixed code, none of it the simulator's: a change to the
// simulator moves op times and leaves the probe alone. In the slow mode its
// SHA-1 blocks slow down about as much as the most affected op and its sort
// less, so the mix puts the probe's slowdown inside the ops' range. It
// allocates nothing, so the allocation counter and the GC pacing see only
// the ops.

// probeRef is the probe's host time in the fast mode of the reference VM.
const probeRef = 200 * time.Microsecond

const (
	probeHashes  = 400  // SHA-1 sums of one 64-byte block
	probeSortLen = 2048 // uint32 keys sorted
)

// prober holds the probe's preallocated working set.
type prober struct {
	block [64]byte
	keys  []uint32 // a fixed xorshift sequence
	buf   []uint32
}

func newProber() *prober {
	p := &prober{keys: make([]uint32, probeSortLen), buf: make([]uint32, probeSortLen)}
	x := uint32(2463534242)
	for i := range p.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.keys[i] = x
	}
	return p
}

// run runs the probe once and returns its host time.
func (p *prober) run() time.Duration {
	start := hostNow()
	for i := 0; i < probeHashes; i++ {
		sum := sha1.Sum(p.block[:])
		p.block[i%len(p.block)] ^= sum[0]
	}
	copy(p.buf, p.keys)
	slices.Sort(p.buf)
	return since(start)
}

// scale runs the probe and returns the factor that converts host time
// measured right after it into host time at the reference speed.
func (p *prober) scale() float64 { return float64(probeRef) / float64(p.run()) }
