package obs

import (
	"bytes"
	"strings"
	"testing"

	"wile/internal/sim"
)

// stubSource emits fixed counters and counts how often it is read.
type stubSource struct {
	names []string
	vals  []int64
	reads int
}

func (s *stubSource) Counters(emit func(name string, v int64)) {
	s.reads++
	for i, name := range s.names {
		emit(name, s.vals[i])
	}
}

func stub(name string, v int64) *stubSource {
	return &stubSource{names: []string{name}, vals: []int64{v}}
}

func TestCollectTwiceChangesNothing(t *testing.T) {
	reg := NewRegistry()
	src := stub("a", 3)
	reg.Collect(src)
	reg.Collect(src)
	if got := reg.Counter("a").Value(); got != 3 {
		t.Fatalf("a = %d after collecting one source twice, want 3", got)
	}
	src.vals[0] = 5 // the registry reads the source's current total
	if got := reg.Counter("a").Value(); got != 5 {
		t.Fatalf("a = %d after the source moved to 5, want 5", got)
	}
}

func TestCollectSumsSourcesSharingAName(t *testing.T) {
	reg := NewRegistry()
	reg.Collect(stub("a", 2))
	reg.Collect(&stubSource{names: []string{"a", "b"}, vals: []int64{5, 1}})
	if got := reg.Counter("a").Value(); got != 7 {
		t.Errorf("a = %d, want 2+5", got)
	}
	if got := reg.Counter("b").Value(); got != 1 {
		t.Errorf("b = %d, want 1", got)
	}
}

// TestPushAddsToCollectedSum: increments pushed into a collected name add
// to what the sources emit, whichever came first.
func TestPushAddsToCollectedSum(t *testing.T) {
	reg := NewRegistry()
	early := reg.Counter("a")
	early.Add(10)
	reg.Collect(stub("a", 4))
	reg.Counter("a").Inc()
	if got := early.Value(); got != 15 {
		t.Fatalf("a = %d, want 10 pushed + 4 pulled + 1 pushed", got)
	}
}

// TestSnapshotsReadEachSourceOnce: a snapshot calls every source's Counters
// once, however many names the source emits.
func TestSnapshotsReadEachSourceOnce(t *testing.T) {
	reg := NewRegistry()
	one := &stubSource{names: []string{"x", "y", "z"}, vals: []int64{1, 2, 3}}
	two := stub("x", 4)
	reg.Collect(one)
	reg.Collect(two)
	reads := func() (int, int) { return one.reads, two.reads }
	r1, r2 := reads()

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if a, b := reads(); a != r1+1 || b != r2+1 {
		t.Errorf("WriteJSON read the sources %d and %d times, want once each", a-r1, b-r2)
	}
	if !strings.Contains(buf.String(), `"x": 5`) || !strings.Contains(buf.String(), `"z": 3`) {
		t.Errorf("snapshot:\n%s", buf.String())
	}

	ts := NewTimeSeries(reg, 0)
	r1, r2 = reads()
	ts.Sample(sim.Time(0))
	ts.Sample(sim.Time(1))
	if a, b := reads(); a != r1+2 || b != r2+2 {
		t.Errorf("two samples read the sources %d and %d times, want twice each", a-r1, b-r2)
	}
	if ts.Len() != 6 {
		t.Errorf("two samples recorded %d points, want 2 x 3 lanes", ts.Len())
	}
}

// TestCollectAndReadAllocateNothingPerSource: collecting a thousand
// sources costs only the source list's growth and the names' registration,
// and reading a collected counter allocates nothing.
func TestCollectAndReadAllocateNothingPerSource(t *testing.T) {
	srcs := make([]*stubSource, 1024)
	for i := range srcs {
		srcs[i] = &stubSource{names: []string{"x", "y", "z"}, vals: []int64{1, 2, int64(i)}}
	}
	var reg *Registry
	allocs := testing.AllocsPerRun(5, func() {
		reg = NewRegistry()
		for _, s := range srcs {
			reg.Collect(s)
		}
	})
	if allocs > 40 {
		t.Errorf("collecting %d sources allocated %v times, want only slice growth", len(srcs), allocs)
	}
	x := reg.Counter("x")
	if got := testing.AllocsPerRun(5, func() { x.Value() }); got != 0 {
		t.Errorf("reading a collected counter allocated %v times, want 0", got)
	}
	if got := x.Value(); got != int64(len(srcs)) {
		t.Errorf("x = %d, want %d", got, len(srcs))
	}
}
