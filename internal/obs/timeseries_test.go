package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wile/internal/sim"
)

// TestTimeSeriesSampling runs a series over a live registry inside a
// scheduler and checks the cadence, the pushed and pulled lanes and the
// CSV shape.
func TestTimeSeriesSampling(t *testing.T) {
	sched := sim.New()
	reg := NewRegistry()
	c := reg.Counter("tx")
	src := stub("rx", 0)
	reg.Collect(src)

	ts := NewTimeSeries(reg, 10*time.Millisecond)
	// Drive the counters from the kernel so samples see evolving values.
	for i := 1; i <= 4; i++ {
		sched.DoAfter(time.Duration(i)*10*time.Millisecond-time.Millisecond, func() {
			c.Inc()
			src.vals[0] += int64(i)
		})
	}
	ts.Run(sched)
	sched.RunUntil(sim.FromDuration(45 * time.Millisecond))
	ts.Stop()

	// Samples at 0,10,20,30,40 ms over 2 lanes (rx, tx) = 10 points.
	if ts.Len() != 10 {
		t.Fatalf("recorded %d points, want 10", ts.Len())
	}
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "time_us,series,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 11 {
		t.Fatalf("CSV has %d rows, want 11", len(lines))
	}
	for _, want := range []string{
		"0.000,rx,0",
		"0.000,tx,0",
		"10000.000,tx,1",
		"20000.000,rx,3",
		"40000.000,tx,4",
		"40000.000,rx,10",
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("CSV missing row %q:\n%s", want, buf.String())
		}
	}
}

// TestTimeSeriesStopsSampling: Stop must end the self-rescheduling chain.
func TestTimeSeriesStopsSampling(t *testing.T) {
	sched := sim.New()
	reg := NewRegistry()
	reg.Counter("tx")
	ts := NewTimeSeries(reg, 10*time.Millisecond)
	ts.Run(sched)
	sched.DoAfter(25*time.Millisecond, ts.Stop)
	sched.RunUntil(sim.FromDuration(100 * time.Millisecond))
	if ts.Len() != 3 {
		t.Fatalf("recorded %d points after Stop, want 3 (0,10,20 ms)", ts.Len())
	}
}

// TestTimeSeriesLateMetric: metrics registered mid-run join at the next
// sample without disturbing earlier lanes.
func TestTimeSeriesLateMetric(t *testing.T) {
	sched := sim.New()
	reg := NewRegistry()
	reg.Counter("early")
	ts := NewTimeSeries(reg, 10*time.Millisecond)
	sched.DoAfter(15*time.Millisecond, func() { reg.Counter("late").Add(7) })
	ts.Run(sched)
	sched.RunUntil(sim.FromDuration(25 * time.Millisecond))
	ts.Stop()
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "\n0.000,late") || strings.Contains(out, "\n10000.000,late") {
		t.Errorf("late metric sampled before registration:\n%s", out)
	}
	if !strings.Contains(out, "20000.000,late,7\n") {
		t.Errorf("late metric missing from the 20 ms sample:\n%s", out)
	}
}
