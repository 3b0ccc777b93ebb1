// Under the race detector the same run's allocation count varies, so this
// check runs only without it.

//go:build !race

package obs

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
)

// TestProvenanceAllocatesTheSameEveryRun replays one ledger history with
// 1,024 actor names, 16,000 link rows, frames completing out of launch
// order and frames with no receivers, and requires the same allocation
// count every time. Past ~900 entries, a Go map's growth allocates a
// number of times that depends on its random per-map seed, which made the
// allocs/op of the ledger's benchmark drift between identical runs.
func TestProvenanceAllocatesTheSameEveryRun(t *testing.T) {
	const actors, audience, batch = 200, 80, 8
	// Every actor has a name of its own, so every pair keeps its row; the
	// first 200 transmit.
	names := make([]string, 1024)
	for i := range names {
		names[i] = "a" + strconv.Itoa(i)
	}
	run := func() {
		p := NewProvenance()
		for _, name := range names {
			p.Actor(name)
		}
		var frames [batch]FrameID
		for tx := ActorID(0); tx < actors; tx += batch {
			for i := range frames {
				p.Transmitted(tx+ActorID(i), 0)
				frames[i] = p.Transmitted(tx+ActorID(i), audience)
			}
			for i := batch - 1; i >= 0; i-- {
				from := tx + ActorID(i)
				for k := ActorID(1); k <= audience; k++ {
					p.Resolve(frames[i], (from+k)%actors, 0, Delivered)
				}
			}
		}
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	// Each run is counted on its own. It runs on one P, so other
	// goroutines (the runtime's background scavenger, say) wait for it: a
	// run is far shorter than the scheduler's time slice. And it runs on a
	// collected heap with the collector off: a collection during a run
	// would clear sync.Pool caches and run pending finalizers, adding
	// allocations the ledger never made. A warm-up run takes the one-time
	// allocations; after it the counted runs follow one another, so a
	// count that alternates from one ledger to the next shows.
	var before, after runtime.MemStats
	measure := func() uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run()
	first := measure()
	for i := 0; i < 5; i++ {
		if got := measure(); got != first {
			t.Fatalf("run %d allocated %v objects, the first %v", i+2, got, first)
		}
	}
}
