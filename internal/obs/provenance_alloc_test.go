// Under the race detector the same run's allocation count varies, so this
// check runs only without it.

//go:build !race

package obs

import "testing"

// TestProvenanceAllocatesTheSameEveryRun replays one ledger history with
// 16,000 link rows, frames completing out of launch order and frames with
// no receivers, and requires the same allocation count every time. Past
// ~900 entries, a Go map's growth allocates a number of times that depends
// on its random per-map seed, which made the allocs/op of the ledger's
// benchmark drift between identical runs.
func TestProvenanceAllocatesTheSameEveryRun(t *testing.T) {
	const actors, audience, batch = 200, 80, 8
	run := func() {
		p := NewProvenance()
		for i := 0; i < actors; i++ {
			p.Actor("a")
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
	first := testing.AllocsPerRun(1, run)
	for i := 0; i < 5; i++ {
		if got := testing.AllocsPerRun(1, run); got != first {
			t.Fatalf("run %d allocated %v objects, the first %v", i+2, got, first)
		}
	}
}
