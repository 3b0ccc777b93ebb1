package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wile/internal/experiment"
)

// TestLabOutputGolden pins what `wile-lab all` and `wile-lab joincap` print
// and write: stdout (with the output directory replaced by $OUT), fig4.csv
// verbatim, and SHA-256 digests of the two 100k-sample Figure 3 CSVs and
// the join capture. Every run is a fixed-seed simulation, so any change to
// a table, figure, ablation or the join on the air shows up here.
// Regenerate with WILE_UPDATE_GOLDEN=1 when the change is intentional.
func TestLabOutputGolden(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	for _, cmd := range []string{"all", "joincap"} {
		fmt.Fprintf(&stdout, "$ wile-lab %s\n", cmd)
		stdout.Write(captureStdout(t, func() error { return run(cmd, out) }))
	}
	var digests bytes.Buffer
	for _, name := range []string{"fig3a.csv", "fig3b.csv", "join.pcap"} {
		fmt.Fprintf(&digests, "%x  %s\n", sha256.Sum256(readFile(t, out, name)), name)
	}
	got := map[string][]byte{
		"lab_stdout.txt": bytes.ReplaceAll(stdout.Bytes(), []byte(out), []byte("$OUT")),
		"lab_fig4.csv":   readFile(t, out, "fig4.csv"),
		"lab_sha256.txt": digests.Bytes(),
	}
	for name, b := range got {
		golden := filepath.Join("testdata", name)
		if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden (rerun with WILE_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s diverged from golden (%d vs %d bytes); rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional\ngot:\n%s",
				name, len(b), len(want), b)
		}
	}
}

// TestAllMeasuresTable1Once checks that `wile-lab all` measures Table 1
// once and shares it with Figure 4, the battery projection and the
// fast-rejoin comparison, as `fig4` and `ablations` each do on their own.
func TestAllMeasuresTable1Once(t *testing.T) {
	measure := measureTable1
	defer func() { measureTable1 = measure }()
	calls := 0
	measureTable1 = func() (*experiment.Table1Result, error) {
		calls++
		return measure()
	}
	for _, cmd := range []string{"all", "fig4", "ablations"} {
		calls = 0
		captureStdout(t, func() error { return run(cmd, t.TempDir()) })
		if calls != 1 {
			t.Errorf("wile-lab %s measured Table 1 %d times, want once", cmd, calls)
		}
	}
}

// TestFigureTimelinesMatchSingleRuns runs `wile-lab -series all` and
// requires each figure's metric series to be the one a run of that figure
// alone writes: every lane is a counter of the figure's own world, none
// describes the command. (A figure's Chrome timeline comes from
// `wile-trace -perfetto`, whose own tests pin it.)
func TestFigureTimelinesMatchSingleRuns(t *testing.T) {
	defer func() { seriesTimelines = false }()
	seriesTimelines = true
	out := t.TempDir()
	captureStdout(t, func() error { return run("all", out) })
	for _, name := range []string{"fig3a", "fig3b"} {
		alone := t.TempDir()
		captureStdout(t, func() error { return run(name, alone) })
		series := readFile(t, out, name+"_series.csv")
		if !bytes.Equal(series, readFile(t, alone, name+"_series.csv")) {
			t.Errorf("%s_series.csv from `all` differs from a run of %s alone", name, name)
		}
		for _, line := range strings.Split(string(series), "\n")[1:] {
			if f := strings.Split(line, ","); len(f) == 3 &&
				(strings.HasPrefix(f[1], "engine.") || strings.HasPrefix(f[1], "experiment.")) {
				t.Errorf("%s_series.csv has a %s lane", name, f[1])
				break
			}
		}
	}
}

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// captureStdout runs f with os.Stdout redirected to a temporary file and
// returns what it printed.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}
