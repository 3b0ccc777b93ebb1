package experiment

import (
	"sync/atomic"

	"wile/internal/engine"
)

// pool is the engine every sweep in this package submits through. It
// defaults to one worker per CPU; SetPool pins it for benchmarks and the
// determinism tests. Access is atomic so sweeps running concurrently with
// a SetPool observe one pool or the other, never a torn value.
var pool atomic.Pointer[engine.Pool]

func init() { pool.Store(engine.New(0)) }

// Pool reports the engine sweeps currently submit through.
func Pool() *engine.Pool { return pool.Load() }

// SetPool replaces the sweep engine and returns the previous one, so
// callers can restore it:
//
//	defer experiment.SetPool(experiment.SetPool(engine.Serial()))
//
// The determinism contract (see package engine) guarantees results do not
// depend on the pool in use — only wall-clock time does.
func SetPool(p *engine.Pool) *engine.Pool { return pool.Swap(p) }
