package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wile/internal/experiment"
	"wile/internal/obs"
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
		b, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&digests, "%x  %s\n", sha256.Sum256(b), name)
	}
	fig4, err := os.ReadFile(filepath.Join(out, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{
		"lab_stdout.txt": bytes.ReplaceAll(stdout.Bytes(), []byte(out), []byte("$OUT")),
		"lab_fig4.csv":   fig4,
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
// fast-rejoin comparison: one energy observation per row, and nine engine
// sweeps (Table 1, Figure 4, and the seven in the ablations).
func TestAllMeasuresTable1Once(t *testing.T) {
	reg := obs.NewRegistry()
	defer experiment.SetMetrics(experiment.SetMetrics(reg))
	captureStdout(t, func() error { return run("all", t.TempDir()) })
	if n := reg.Histogram("experiment.energy_per_packet_uj", nil).Count(); n != 4 {
		t.Errorf("experiment.energy_per_packet_uj has %d observations, want 4 (one per Table 1 row)", n)
	}
	if n := reg.Counter("engine.sweeps").Value(); n != 9 {
		t.Errorf("engine.sweeps = %d, want 9", n)
	}
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
