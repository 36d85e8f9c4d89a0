package experiment

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"barterdist/internal/core"
)

func cellTestSpecs() []runSpec {
	return []runSpec{
		{
			tag:  "cell: n=16",
			cfg:  core.Config{Nodes: 16, Blocks: 12, Algorithm: core.AlgoRandomized, DownloadCap: 1},
			reps: 3,
			seed: 101,
		},
		{
			tag:  "cell: n=32",
			cfg:  core.Config{Nodes: 32, Blocks: 12, Algorithm: core.AlgoRandomized, DownloadCap: 1},
			reps: 2,
			seed: 202,
		},
	}
}

func readStoreLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read store: %v", err)
	}
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}

// TestCheckpointedRunMatchesUncheckpointed pins the cell store's basic
// contract: running with Options.Checkpoint produces the exact Points an
// uncheckpointed run does, and the store ends up with one line per
// (spec, replicate) cell.
func TestCheckpointedRunMatchesUncheckpointed(t *testing.T) {
	want, err := runPoints(Options{Workers: 1}, cellTestSpecs())
	if err != nil {
		t.Fatalf("uncheckpointed: %v", err)
	}
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	got, err := runPoints(Options{Workers: 2, Checkpoint: path}, cellTestSpecs())
	if err != nil {
		t.Fatalf("checkpointed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkpointed points differ:\ngot  %+v\nwant %+v", got, want)
	}
	if lines := readStoreLines(t, path); len(lines) != 5 {
		t.Errorf("store has %d lines, want 5:\n%s", len(lines), strings.Join(lines, "\n"))
	}
}

// TestResumeRunsOnlyMissingCells interrupts a checkpointed sweep
// (keeping a partial store with a torn trailing line), rewrites the
// surviving cells' ticks to sentinel values, and resumes. The sentinel
// values flowing through to the aggregated Points prove the cached
// cells were served from the store, not recomputed; the missing cells
// are recomputed and appended.
func TestResumeRunsOnlyMissingCells(t *testing.T) {
	specs := cellTestSpecs()
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	if _, err := runPoints(Options{Workers: 1, Checkpoint: path}, specs); err != nil {
		t.Fatalf("full run: %v", err)
	}
	lines := readStoreLines(t, path)
	if len(lines) != 5 {
		t.Fatalf("store has %d lines, want 5", len(lines))
	}

	// Keep the first three cells, poke a sentinel completion time into
	// each, and simulate a crash mid-append of the fourth.
	const sentinel = 424242
	var kept []string
	for _, line := range lines[:3] {
		var rec cellRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("store line %q: %v", line, err)
		}
		var o repOutcome
		if err := json.Unmarshal(rec.Out, &o); err != nil {
			t.Fatalf("store cell payload %q: %v", rec.Out, err)
		}
		o.Ticks = sentinel
		payload, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		rec.Out = payload
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, string(out))
	}
	torn := strings.Join(kept, "\n") + "\n" + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := runPoints(Options{Workers: 2, Checkpoint: path}, specs)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// Spec 0's three replicates were all cached at the sentinel value.
	if resumed[0].Mean != sentinel {
		t.Errorf("spec 0 mean = %v, want sentinel %v (cached cells were recomputed)", resumed[0].Mean, sentinel)
	}
	// Spec 1's cells (including the torn one) were recomputed for real.
	if resumed[1].Mean == sentinel || resumed[1].Mean <= 0 {
		t.Errorf("spec 1 mean = %v, want a genuine completion time", resumed[1].Mean)
	}
	if lines := readStoreLines(t, path); len(lines) != 5 {
		t.Errorf("resumed store has %d lines, want 5:\n%s", len(lines), strings.Join(lines, "\n"))
	}
}

// TestTableScaleHonorsCheckpoint pins that the bespoke generators (the
// ones that fan out with their own parallel.Map loop instead of
// runPoints) run through the cell store too. TableScale is the one that
// matters most — its full-scale n=100k cell runs for the better part of
// an hour — so it is the one pinned: a checkpointed run matches an
// uncheckpointed one, and on rerun every cell is served from the store
// (proved by poking sentinel outcomes into the cached payloads and
// watching them flow into the rendered table).
func TestTableScaleHonorsCheckpoint(t *testing.T) {
	want, err := TableScale(ScaleCI, Options{Workers: 1})
	if err != nil {
		t.Fatalf("uncheckpointed: %v", err)
	}
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	got, err := TableScale(ScaleCI, Options{Workers: 2, Checkpoint: path})
	if err != nil {
		t.Fatalf("checkpointed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkpointed table differs:\ngot  %+v\nwant %+v", got, want)
	}
	// ScaleCI: ns={128,512} x 2 reps, minus n=512 rep 0 (owned by the
	// shard sweep), plus the three shard-sweep cells at P=1/4/8.
	lines := readStoreLines(t, path)
	if len(lines) != 6 {
		t.Fatalf("store has %d lines, want 6:\n%s", len(lines), strings.Join(lines, "\n"))
	}

	// Poke a sentinel completion time into every cached cell and rerun.
	const sentinel = 424242
	var poked []string
	for _, line := range lines {
		var rec cellRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("store line %q: %v", line, err)
		}
		var o map[string]any
		if err := json.Unmarshal(rec.Out, &o); err != nil {
			t.Fatalf("cell payload %q: %v", rec.Out, err)
		}
		o["ticks"] = sentinel
		// Cells cached before the credit check lost its worker width
		// carry creditWall8; they must still decode.
		o["creditWall8"] = 0.5
		payload, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		rec.Out = payload
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		poked = append(poked, string(out))
	}
	if err := os.WriteFile(path, []byte(strings.Join(poked, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := TableScale(ScaleCI, Options{Workers: 1, Checkpoint: path})
	if err != nil {
		t.Fatalf("resumed: %v", err)
	}
	for _, row := range resumed.Rows {
		if !strings.Contains(row[1], "424242") {
			t.Errorf("row %v does not carry the sentinel mean; cached cells were recomputed", row)
		}
	}
}

// TestCellStoreRejectsMidFileGarbage distinguishes a torn tail (small,
// recoverable) from wholesale corruption: a large unparseable region is
// an error, not something to silently truncate away.
func TestCellStoreRejectsMidFileGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	garbage := strings.Repeat("x", 1<<17)
	if err := os.WriteFile(path, []byte(garbage), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openCellStore(path); err == nil {
		t.Fatal("openCellStore accepted 128 KiB of garbage")
	}
}

// TestCellStoreErrorsNotCached pins that failing cells are retried on
// resume: only successful (or stalled) outcomes are appended, so a
// transient failure never poisons the store.
func TestCellStoreErrorsNotCached(t *testing.T) {
	specs := []runSpec{{
		tag:  "cell: bad",
		cfg:  core.Config{Nodes: -1, Blocks: 4, Algorithm: core.AlgoRandomized},
		reps: 1,
		seed: 7,
	}}
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	if _, err := runPoints(Options{Workers: 1, Checkpoint: path}, specs); err == nil {
		t.Fatal("runPoints accepted an invalid config")
	}
	if lines := readStoreLines(t, path); len(lines) != 0 {
		t.Errorf("store cached a failed cell: %v", lines)
	}
}

// TestCellStoreCachesStalls pins the complementary decision: a stall is
// data (a point pinned at the tick budget), so it is cached and a
// resumed run does not redo the full budget-exhausting simulation.
func TestCellStoreCachesStalls(t *testing.T) {
	specs := []runSpec{{
		tag: "cell: stall",
		cfg: core.Config{
			Nodes: 16, Blocks: 12, Algorithm: core.AlgoRandomized,
			DownloadCap: 1, MaxTicks: 3, // far below completion: guaranteed stall
		},
		reps: 1,
		seed: 9,
	}}
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	pts, err := runPoints(Options{Workers: 1, Checkpoint: path}, specs)
	if err != nil {
		t.Fatalf("stall run: %v", err)
	}
	if pts[0].Stalled != 1 {
		t.Fatalf("expected a stalled point, got %+v", pts[0])
	}
	lines := readStoreLines(t, path)
	if len(lines) != 1 {
		t.Fatalf("store has %d lines, want 1", len(lines))
	}
	var rec cellRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	var o repOutcome
	if err := json.Unmarshal(rec.Out, &o); err != nil {
		t.Fatal(err)
	}
	if !o.Stalled || o.Ticks != 3 {
		t.Errorf("cached stall record = %+v, want stalled at ticks=3", o)
	}
	// And the cache round-trips: resuming reproduces the stalled point.
	pts2, err := runPoints(Options{Workers: 1, Checkpoint: path}, specs)
	if err != nil {
		t.Fatalf("resumed stall run: %v", err)
	}
	if !reflect.DeepEqual(pts2, pts) {
		t.Errorf("resumed stall points differ: got %+v want %+v", pts2, pts)
	}
}
