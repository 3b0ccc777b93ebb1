package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// record records base as a baseline and cur diffed against it, and returns
// the two documents' paths.
func record(t *testing.T, base, cur string) (baseJSON, curJSON string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseJSON, curJSON = filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json")
	if err := run(write("base.txt", base), baseJSON, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(write("cur.txt", cur), curJSON, baseJSON); err != nil {
		t.Fatal(err)
	}
	return baseJSON, curJSON
}

// gateAgainst records base as a baseline, diffs cur against it and returns
// what -gate at a 25% threshold reports.
func gateAgainst(t *testing.T, base, cur string) []string {
	t.Helper()
	_, curJSON := record(t, base, cur)
	return checkGate(curJSON, 25)
}

// TestGate pins what the bench gate fails on: ns/op past the threshold,
// any allocs/op growth, and a custom /op count moving either way. Other
// custom metrics are rates or percentages that vary run to run.
func TestGate(t *testing.T) {
	const base = "BenchmarkField/devices=2000-2 10 1000 ns/op 10 allocs/op 9746 tx/op 5501 collisions/op 9.7 collision-% 400000 tx/s"
	for _, c := range []struct {
		name, cur string
		want      []string
	}{
		{"unchanged", base, nil},
		{"ns within the threshold, allocs and other metrics down",
			"BenchmarkField/devices=2000-2 10 1240 ns/op 9 allocs/op 9746 tx/op 5501 collisions/op 3.1 collision-% 100 tx/s", nil},
		{"ns past the threshold",
			"BenchmarkField/devices=2000-2 10 1260 ns/op 10 allocs/op 9746 tx/op 5501 collisions/op 9.7 collision-% 400000 tx/s",
			[]string{"BenchmarkField/devices=2000 ns/op regressed 26.0%"}},
		{"allocs grew",
			"BenchmarkField/devices=2000-2 10 1000 ns/op 11 allocs/op 9746 tx/op 5501 collisions/op 9.7 collision-% 400000 tx/s",
			[]string{"BenchmarkField/devices=2000 allocs/op grew by 1"}},
		{"counts moved both ways",
			"BenchmarkField/devices=2000-2 10 1000 ns/op 10 allocs/op 9747 tx/op 5500 collisions/op 9.7 collision-% 400000 tx/s",
			[]string{"BenchmarkField/devices=2000 collisions/op changed by -1", "BenchmarkField/devices=2000 tx/op changed by +1"}},
		{"a count the baseline lacks",
			"BenchmarkField/devices=2000-2 10 1000 ns/op 10 allocs/op 9746 tx/op 5501 collisions/op 64510 rx/op 9.7 collision-% 400000 tx/s", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := gateAgainst(t, base, c.cur)
			if len(got) != len(c.want) {
				t.Fatalf("gate reported %q, want %d findings starting %q", got, len(c.want), c.want)
			}
			for i, want := range c.want {
				if !strings.HasPrefix(got[i], want) {
					t.Errorf("finding %d = %q, want it to start %q", i, got[i], want)
				}
			}
		})
	}
}

// TestBytesPerOpReportedNotGated pins where B/op shows: its change lands
// in deltas_vs_baseline and in -compare's Δ B/op column, and the gate
// ignores it, growth included.
func TestBytesPerOpReportedNotGated(t *testing.T) {
	const base = "BenchmarkFig3bWiLETrace 100 1000 ns/op 14867 B/op 94 allocs/op"
	for _, c := range []struct {
		name, cur string
		diff      *float64
		row       string
	}{
		{"fell", "BenchmarkFig3bWiLETrace 100 1000 ns/op 9671 B/op 94 allocs/op", ptr(-5196),
			"| BenchmarkFig3bWiLETrace | 1000 | 1000 | +0.0% | 94 | 94 | +0 | -5196 |"},
		{"grew", "BenchmarkFig3bWiLETrace 100 1000 ns/op 20000 B/op 94 allocs/op", ptr(5133),
			"| BenchmarkFig3bWiLETrace | 1000 | 1000 | +0.0% | 94 | 94 | +0 | +5133 |"},
		{"not recorded", "BenchmarkFig3bWiLETrace 100 1000 ns/op", nil,
			"| BenchmarkFig3bWiLETrace | 1000 | 1000 | +0.0% | 94 | - | - | - |"},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseJSON, curJSON := record(t, base, c.cur)
			if got := checkGate(curJSON, 25); got != nil {
				t.Errorf("gate reported %q, want nothing", got)
			}
			doc, err := loadBaseline(curJSON)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cell("%+.0f", doc.Deltas[0].BytesPerOpDiff), cell("%+.0f", c.diff); got != want {
				t.Errorf("bytes_per_op_diff = %s, want %s", got, want)
			}
			var out strings.Builder
			if err := runCompare(&out, baseJSON, curJSON); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), c.row+"\n") {
				t.Errorf("-compare printed\n%s\nwant the row\n%s", out.String(), c.row)
			}
		})
	}
}
