// Package engine is the parallel experiment runner: it shards independent
// sweep points (Figure 4 intervals, ablation settings, Table 1 scenarios)
// across a pool of goroutines while preserving the serial path's
// determinism bit for bit.
//
// The determinism contract has three legs:
//
//  1. Every sweep point builds its own simulation world. Points share no
//     kernel, no medium and no PRNG, so execution order cannot leak
//     between them.
//  2. Seeds are a pure function of the point's index: SubSeed derives a
//     per-point seed from (base, index) with the same SplitMix64 chain
//     sim.NewRand uses internally, so a point's randomness is identical
//     whether it runs first on one worker or last on sixteen.
//  3. Results land in a slice indexed by the point's input position, and
//     errors are reported for the lowest failing index — the same error
//     a serial for-loop would have returned first.
//
// Under that contract Map's output is byte-identical to the inline loop
// regardless of GOMAXPROCS, worker count or completion order.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a worker-count policy for sweeps. The zero value is not valid;
// use New. Pools carry no goroutines between calls — workers are spawned
// per Map and exit when the sweep drains — and nothing but their worker
// count, so an idle Pool costs nothing and Pools are safe for concurrent
// use.
type Pool struct {
	workers int
}

// New returns a pool that runs sweeps on the given number of workers.
// workers <= 0 selects runtime.GOMAXPROCS(0), the "as fast as the
// hardware allows" default.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Serial returns the one-worker pool: Map runs inline on the caller's
// goroutine. This is the reference path the parallel runs must match.
func Serial() *Pool { return New(1) }

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// SubSeed derives the seed for sweep point i from a base seed using the
// SplitMix64 step — the seeding discipline sim.NewRand applies to expand
// one word into generator state. Derived seeds are decorrelated between
// adjacent indices and depend only on (base, i), never on scheduling.
func SubSeed(base uint64, i int) uint64 {
	x := base + (uint64(i)+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Map evaluates fn(i) for every i in [0, n) on the pool and returns the
// results in input order. fn must be safe for concurrent invocation on
// distinct indices (each sweep point owns its world). If any point fails,
// Map returns the error of the lowest failing index — exactly the error a
// serial loop would surface — after all in-flight points finish; results
// are discarded on error.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MapSeeded is Map with the point's SubSeed(base, i) passed alongside its
// index, for sweeps whose worlds draw randomness.
func MapSeeded[T any](p *Pool, base uint64, n int, fn func(i int, seed uint64) (T, error)) ([]T, error) {
	return Map(p, n, func(i int) (T, error) { return fn(i, SubSeed(base, i)) })
}

// MapValues is Map for point functions that cannot fail. It exists so
// infallible sweeps (pure Equation-1 evaluations, closed-form models)
// keep their error-free signatures when they move onto the engine.
func MapValues[T any](p *Pool, n int, fn func(i int) T) []T {
	out, err := Map(p, n, func(i int) (T, error) { return fn(i), nil })
	if err != nil {
		// Unreachable: the point function never returns an error.
		panic("engine: MapValues: " + err.Error())
	}
	return out
}
