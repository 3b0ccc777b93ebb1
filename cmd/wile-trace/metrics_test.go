package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestDropsMetricsGolden pins the registry snapshot that
// `wile-trace -drops -metrics` writes for fig3a: the medium counters
// (wile.medium_transmissions, _deliveries, _collisions), the ledger's
// wile.medium_frames, wile.medium_delivered and wile.medium_drop_<reason>
// totals, and the station's and AP's mac.* counters. Regenerate with
// WILE_UPDATE_GOLDEN=1 when a change is intentional.
func TestDropsMetricsGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if code := run([]string{"-drops", "-json", "-metrics", path, "fig3a"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig3a_drops_metrics.json")
	if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (rerun with WILE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics snapshot diverged from golden; rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional\ngot:\n%s", got)
	}
}
