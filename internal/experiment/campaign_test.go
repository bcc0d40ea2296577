package experiment

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clumsy/internal/clumsy"
	"clumsy/internal/telemetry"
)

// TestCampaignResumeByteIdentical is the tentpole's acceptance test: a
// campaign cancelled mid-grid and resumed from its journal must render
// byte-identical output to an uninterrupted run, and must skip (not
// recompute) every journaled cell.
func TestCampaignResumeByteIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	o := Options{Packets: 200, Trials: 1}

	// Reference: the uninterrupted campaign.
	ref, err := EDFGrid("crc", o)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := EDFRender(ref, "test", o).RenderCSV(&refCSV); err != nil {
		t.Fatal(err)
	}

	// Interrupted: cancel the campaign context once five cells have been
	// journaled. In-flight cells drain; the rest of the grid never runs.
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oi := o
	oi.Ctx = ctx
	oi.Journal = j
	var computed atomic.Int32
	oi.afterCell = func(string, int) {
		if computed.Add(1) == 5 {
			cancel()
		}
	}
	if _, err := EDFGrid("crc", oi); err == nil {
		t.Fatal("cancelled campaign must report an error")
	}

	jr, loaded, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	total := len(Schemes()) * len(Settings())
	if loaded < 5 || loaded >= total {
		t.Fatalf("journal holds %d of %d cells; want a partial campaign", loaded, total)
	}

	// Resumed: only the missing cells are computed, and the rendered CSV is
	// byte-identical to the uninterrupted reference.
	or := o
	or.Journal = jr
	var recomputed atomic.Int32
	or.afterCell = func(string, int) { recomputed.Add(1) }
	res, err := EDFGrid("crc", or)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(recomputed.Load()), total-loaded; got != want {
		t.Fatalf("resume recomputed %d cells, want %d (journal held %d)", got, want, loaded)
	}
	var gotCSV bytes.Buffer
	if err := EDFRender(res, "test", o).RenderCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatalf("resumed campaign rendered differently:\n--- uninterrupted ---\n%s--- resumed ---\n%s",
			refCSV.String(), gotCSV.String())
	}
}

// TestRunCellCancelled: a cancelled cell fails on its first attempt with
// the cancellation in its error chain.
func TestRunCellCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Ctx: ctx}
	var attempts int
	var out int
	err := runCell(o, "cancelled", 0, nil, &out, func() (int, error) {
		attempts++
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d, want context.Canceled after 1 attempt", err, attempts)
	}
}

// TestRunCellDeadline: a wedged cell is killed by the wall-clock watchdog
// with a diagnostic naming the study and cell.
func TestRunCellDeadline(t *testing.T) {
	tel := telemetry.New()
	clumsy.SetDefaultTelemetry(tel)
	defer clumsy.SetDefaultTelemetry(nil)

	release := make(chan struct{})
	defer close(release)
	o := Options{RunTimeout: 20 * time.Millisecond}
	var attempts atomic.Int32
	var out int
	err := runCell(o, "wedge", 3, nil, &out, func() (int, error) {
		attempts.Add(1)
		<-release // wedged until test cleanup
		return 1, nil
	})
	var te *CellTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want CellTimeoutError", err)
	}
	if te.Study != "wedge" || te.Index != 3 {
		t.Fatalf("diagnostic names %s[%d], want wedge[3]", te.Study, te.Index)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("wedged cell attempted %d times, want 1", got)
	}
	if got := tel.Registry.Counter(telemetry.CtrCampaignCellsTimedOut).Load(); got != 1 {
		t.Fatalf("campaign.cells_timed_out = %d, want 1", got)
	}
}

// TestRunCellPanicTerminal: a panic inside a deadline-guarded cell surfaces
// as an error carrying the cell identity instead of crashing.
func TestRunCellPanicTerminal(t *testing.T) {
	o := Options{RunTimeout: time.Second}
	var attempts int
	var out int
	err := runCell(o, "buggy", 7, nil, &out, func() (int, error) {
		attempts++
		panic("index out of range")
	})
	if err == nil || !errors.Is(err, errCellPanic) {
		t.Fatalf("err = %v, want errCellPanic chain", err)
	}
	if attempts != 1 {
		t.Fatalf("panicking cell attempted %d times, want 1", attempts)
	}
}

// TestRunCellJournalSkip: a journaled cell is returned without invoking
// compute, and the skip is counted.
func TestRunCellJournalSkip(t *testing.T) {
	tel := telemetry.New()
	clumsy.SetDefaultTelemetry(tel)
	defer clumsy.SetDefaultTelemetry(nil)

	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Journal: j}
	var out int
	if err := runCell(o, "s", 0, "extra", &out, func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatalf("out = %d, want 7", out)
	}

	// Reopen with resume and hit the same cell: compute must not run.
	j2, n, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("journal reloaded %d entries, want 1", n)
	}
	o2 := Options{Journal: j2}
	out = 0
	if err := runCell(o2, "s", 0, "extra", &out, func() (int, error) {
		t.Fatal("journaled cell recomputed")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatalf("journal replayed %d, want 7", out)
	}
	if got := tel.Registry.Counter(telemetry.CtrCampaignCellsSkipped).Load(); got != 1 {
		t.Fatalf("campaign.cells_skipped = %d, want 1", got)
	}

	// A different config fingerprint misses and recomputes.
	o3 := Options{Journal: j2, Packets: 999}
	out = 0
	if err := runCell(o3, "s", 0, "extra", &out, func() (int, error) { return 8, nil }); err != nil {
		t.Fatal(err)
	}
	if out != 8 {
		t.Fatalf("config change must miss the journal: out = %d, want 8", out)
	}
}
