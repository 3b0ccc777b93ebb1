package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wile/internal/obs"
)

// runDrops executes the lossy scenario with a fresh ledger and returns the
// ledger plus both report serializations.
func runDrops(t *testing.T) (*obs.Provenance, *DropResult, string, string) {
	t.Helper()
	prov := obs.NewProvenance()
	res, err := RunDropScenario(&Obs{Prov: prov})
	if err != nil {
		t.Fatal(err)
	}
	var txt, js bytes.Buffer
	if err := prov.WriteReport(&txt); err != nil {
		t.Fatal(err)
	}
	if err := prov.WriteReportJSON(&js); err != nil {
		t.Fatal(err)
	}
	return prov, res, txt.String(), js.String()
}

// TestDropScenarioConservation pins the ledger invariant on a full lossy
// world: it balances as every world must (see balanced), and every reason
// in the taxonomy actually occurs.
func TestDropScenarioConservation(t *testing.T) {
	o := harnessObs()
	res, err := RunDropScenario(o)
	if err != nil {
		t.Fatal(err)
	}
	balanced(t, "drop scenario", o, res.Run, 0)
	prov, out := o.Prov, o.Prov.Outcomes()
	for reason := obs.DropReason(0); reason < obs.NumDropReasons; reason++ {
		if reason == obs.DropQueueDrop {
			if prov.QueueDrops() == 0 {
				t.Errorf("scenario produced no queue_drop")
			}
			continue
		}
		if out[reason] == 0 {
			t.Errorf("scenario produced no %v outcome", reason)
		}
	}
}

// TestDropScenarioReportGolden pins both drop-report formats of the lossy
// scenario byte for byte. Unlike the fig3a world, this one has a radio out
// of every transmitter's range (scan-far at 300 m), so the golden pins the
// out-of-range row the medium settles by count for each transmitter.
// Regenerate with WILE_UPDATE_GOLDEN=1 after intentional changes.
func TestDropScenarioReportGolden(t *testing.T) {
	_, _, txt, js := runDrops(t)
	for _, g := range []struct{ name, got string }{
		{"drop_scenario_report.txt", txt},
		{"drop_scenario_report.json", js},
	} {
		path := filepath.Join("testdata", g.name)
		if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s (%d bytes)", path, len(g.got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with WILE_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if g.got != string(want) {
			t.Errorf("%s diverged from golden (%d vs %d bytes); rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional\ngot:\n%s",
				path, len(g.got), len(want), g.got)
		}
	}
}

// TestDropScenarioDeterminism pins the cross-GOMAXPROCS byte-identity
// contract for both report formats.
func TestDropScenarioDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first, firstJSON string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, _, txt, js := runDrops(t)
		if first == "" {
			first, firstJSON = txt, js
			continue
		}
		if txt != first {
			t.Errorf("text report differs at GOMAXPROCS=%d:\n%s\n---\n%s", procs, txt, first)
		}
		if js != firstJSON {
			t.Errorf("JSON report differs at GOMAXPROCS=%d", procs)
		}
	}
}

// TestDropScenarioRegistryMirror: with a registry wired alongside the
// ledger, the wile.medium_* counters must agree with both views.
func TestDropScenarioRegistryMirror(t *testing.T) {
	prov := obs.NewProvenance()
	reg := obs.NewRegistry()
	res, err := RunDropScenario(&Obs{Prov: prov, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("wile.medium_transmissions").Value(); got != int64(res.Stats.Transmissions) {
		t.Errorf("wile.medium_transmissions = %d, want %d", got, res.Stats.Transmissions)
	}
	if got := reg.Counter("wile.medium_deliveries").Value(); got != int64(res.Stats.Deliveries) {
		t.Errorf("wile.medium_deliveries = %d, want %d", got, res.Stats.Deliveries)
	}
	if got := reg.Counter("wile.medium_collisions").Value(); got != int64(res.Stats.Collisions) {
		t.Errorf("wile.medium_collisions = %d, want %d", got, res.Stats.Collisions)
	}
	if got := reg.Counter("wile.medium_frames").Value(); got != prov.Frames() {
		t.Errorf("wile.medium_frames = %d, want %d", got, prov.Frames())
	}
	out := prov.Outcomes()
	if got := reg.Counter("wile.medium_delivered").Value(); got != out[obs.Delivered] {
		t.Errorf("wile.medium_delivered = %d, want %d", got, out[obs.Delivered])
	}
	if got := reg.Counter("wile.medium_drop_collided").Value(); got != out[obs.DropCollided] {
		t.Errorf("wile.medium_drop_collided = %d, want %d", got, out[obs.DropCollided])
	}
	if got := reg.Counter("wile.medium_drop_queue_drop").Value(); got != prov.QueueDrops() {
		t.Errorf("wile.medium_drop_queue_drop = %d, want %d", got, prov.QueueDrops())
	}
}
