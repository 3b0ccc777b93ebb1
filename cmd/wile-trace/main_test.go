package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wile/internal/obs"
)

// TestDropsReportGolden pins the byte-for-byte output of
// `wile-trace -drops -json fig3a`: the JSON drop report over the fully
// deterministic Figure 3a world. Any change to frame accounting, the drop
// taxonomy, report ordering or serialization shows up here. Regenerate with
// WILE_UPDATE_GOLDEN=1 when the change is intentional.
func TestDropsReportGolden(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-drops", "-json", "fig3a"}, &out, io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	golden := filepath.Join("testdata", "fig3a_drops.json")
	if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (rerun with WILE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("drop report diverged from golden (%d vs %d bytes); rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional\ngot:\n%s",
			out.Len(), len(want), out.String())
	}
}

// TestDropsReportText sanity-checks the human-readable form: the header,
// the closed outcome table and at least one link row.
func TestDropsReportText(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-drops", "fig3b"}, &out, io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	text := out.String()
	for _, want := range []string{"frames ", "delivered", "radio_off", "links:"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestWriteDropsFailsUnresolvedLedger: a ledger with a frame still pending
// is reported in both formats, and writeDrops then returns the
// conservation error, so the command exits 1.
func TestWriteDropsFailsUnresolvedLedger(t *testing.T) {
	for _, asJSON := range []bool{false, true} {
		p := obs.NewProvenance()
		tx, rx := p.Actor("tx"), p.Actor("rx")
		p.Transmitted(tx, 1)
		p.Resolve(p.Transmitted(tx, 1), rx, 0, obs.Delivered)
		var out bytes.Buffer
		err := writeDrops(p, &out, asJSON)
		if err == nil || !strings.Contains(err.Error(), "1 frames still unresolved") {
			t.Errorf("json %v: writeDrops returned %v, want the unresolved-frame error", asJSON, err)
		}
		if !strings.Contains(out.String(), "unresolved") {
			t.Errorf("json %v: report not written before the check:\n%s", asJSON, out.String())
		}
	}
}

// TestJSONRequiresDrops pins the flag contract.
func TestJSONRequiresDrops(t *testing.T) {
	var errBuf bytes.Buffer
	if code := run([]string{"-json", "fig3a"}, io.Discard, &errBuf); code != 2 {
		t.Fatalf("run exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "-json requires -drops") {
		t.Errorf("stderr = %q", errBuf.String())
	}
}

// TestSchedTraceDigest pins the firehose export, `wile-trace -perfetto
// -sched`, by the SHA-256 of its bytes for both figures: every scheduler
// dispatch, power state and MAC span of the run, in record order, then
// the meter's current counters, which it records at Stop. The digests are
// the same at every GOMAXPROCS.
func TestSchedTraceDigest(t *testing.T) {
	for fig, want := range map[string]string{
		"fig3a": "89ef2693d0420df94fefb232965cf8d141682976a8af6b4f6638bb77303e6e09",
		"fig3b": "5761094a87942302a8f3448917f440c02f4a5245160708af0005fa389c214567",
	} {
		h := sha256.New()
		if code := run([]string{"-perfetto", "-sched", fig}, h, io.Discard); code != 0 {
			t.Fatalf("%s: run exited %d", fig, code)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: -perfetto -sched digest %s, want %s", fig, got, want)
		}
	}
}
