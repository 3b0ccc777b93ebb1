package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wile/internal/obs"
)

// renderObs runs a traced experiment and serializes both observability
// views — the Chrome trace and the metrics snapshot — into one byte stream.
func renderObs(t *testing.T, run func(*Obs) (*Trace, error)) []byte {
	t.Helper()
	rec := obs.NewRecorder()
	reg := obs.NewRegistry()
	if _, err := run(&Obs{Rec: rec, Reg: reg}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkObsGolden compares a traced run against testdata/<name>, or
// rewrites the golden when WILE_UPDATE_GOLDEN is set.
func checkObsGolden(t *testing.T, name string, run func(*Obs) (*Trace, error)) {
	t.Helper()
	got := renderObs(t, run)
	path := filepath.Join("testdata", name)
	if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with WILE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("traced output diverged from %s (%d vs %d bytes); "+
			"rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional",
			path, len(got), len(want))
	}
}

// TestFig3bTraceGolden pins the traced Figure-3b run byte-for-byte. The
// golden file is the acceptance artifact: a valid Chrome trace-event JSON
// document (open it at https://ui.perfetto.dev) followed by the metrics
// snapshot. Regenerate with WILE_UPDATE_GOLDEN=1 after intentional changes.
func TestFig3bTraceGolden(t *testing.T) {
	checkObsGolden(t, "fig3b_trace.golden", RunFig3b)
}

// TestFig3aTraceGolden pins the traced Figure-3a run the same way: every
// frame, join-phase slice and power state of the WiFi-DC cycle keeps its
// sim-time and its order.
func TestFig3aTraceGolden(t *testing.T) {
	checkObsGolden(t, "fig3a_trace.golden", RunFig3a)
}

// TestFig3bTraceIsValidChromeJSON verifies the export parses as the Chrome
// trace-event format Perfetto consumes: a traceEvents array whose entries
// all carry a phase code, with our process metadata up front.
func TestFig3bTraceIsValidChromeJSON(t *testing.T) {
	rec := obs.NewRecorder()
	if _, err := RunFig3b(&Obs{Rec: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 20 {
		t.Fatalf("suspiciously small trace: %d events", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		ph, ok := e["ph"].(string)
		if !ok {
			t.Fatalf("event missing ph: %v", e)
		}
		phases[ph]++
	}
	// The run must exercise every event kind: metadata, power-state slices
	// (B/E), MAC spans (X), instants and the meter counter.
	for _, ph := range []string{"M", "B", "E", "X", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("trace has no %q events (phases: %v)", ph, phases)
		}
	}
}

// TestFig3bTraceDeterministicAcrossProcs is the tentpole's determinism
// gate: the traced run exports byte-identical output across repeated runs
// and across GOMAXPROCS settings, because every event is keyed on sim.Time
// alone.
func TestFig3bTraceDeterministicAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var reference []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			got := renderObs(t, RunFig3b)
			if reference == nil {
				reference = got
				continue
			}
			if !bytes.Equal(got, reference) {
				t.Fatalf("GOMAXPROCS=%d run=%d: trace differs from reference (%d vs %d bytes)",
					procs, run, len(got), len(reference))
			}
		}
	}
}

// TestMetricsSnapshotSubsumesMACStats asserts the registry carries every
// counter the ad-hoc mac.Stats struct used to be the only home of.
func TestMetricsSnapshotSubsumesMACStats(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := RunFig3b(&Obs{Reg: reg}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, name := range []string{
		"mac.tx_frames", "mac.tx_acks", "mac.rx_frames", "mac.rx_fcs_errors",
		"mac.rx_duplicates", "mac.retries", "mac.drops",
	} {
		if _, ok := doc.Counters[name]; !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
	// The injected beacon flew and the scanner heard it.
	if doc.Counters["mac.tx_frames"] == 0 {
		t.Error("mac.tx_frames is zero after a transmission")
	}
	if doc.Counters["mac.rx_frames"] == 0 {
		t.Error("mac.rx_frames is zero after a reception")
	}
}
