package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestParseLine(t *testing.T) {
	el, err := parseLine("1.5,2.5,0.8", 2)
	if err != nil {
		t.Fatal(err)
	}
	if el.Point[0] != 1.5 || el.Point[1] != 2.5 || el.Prob != 0.8 || el.TS != 0 {
		t.Fatalf("parsed %+v", el)
	}

	el, err = parseLine(" 1 , 2 , 0.5 , 42 ", 2)
	if err != nil {
		t.Fatal(err)
	}
	if el.TS != 42 {
		t.Fatalf("ts = %d", el.TS)
	}

	for _, bad := range []string{
		"1,2",          // too few fields
		"1,2,3,4,5",    // too many
		"x,2,0.5",      // bad coordinate
		"1,2,p",        // bad probability
		"1,2,0.5,nope", // bad timestamp
	} {
		if _, err := parseLine(bad, 2); err == nil {
			t.Errorf("parseLine(%q) accepted", bad)
		}
	}
}

// genCSV produces n deterministic "x,y,p" lines for a 2-d stream.
func genCSV(seed int64, n int) []string {
	r := rand.New(rand.NewSource(seed))
	lines := make([]string, n)
	for i := range lines {
		// Keep the probability ≥ 0.0001 so %.4f cannot round it to 0.
		lines[i] = fmt.Sprintf("%.6f,%.6f,%.4f", r.Float64(), r.Float64(), 0.0001+0.9999*r.Float64())
	}
	return lines
}

// runSession drives run() over the given input lines and returns stdout.
func runSession(t *testing.T, cfg config, lines []string) string {
	t.Helper()
	var out, errw bytes.Buffer
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	if err := run(cfg, in, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	return out.String()
}

// eventLines filters the enter/leave event output, dropping per-session
// statistics.
func eventLines(out string) []string {
	var ev []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "+") || strings.HasPrefix(l, "-") {
			ev = append(ev, l)
		}
	}
	return ev
}

// finalSizes extracts the "now" candidate/skyline counts from the stats
// footer (the per-session max counts legitimately differ across restarts).
func finalSizes(t *testing.T, out string) (cand, sky int) {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "candidates: now ") {
			if _, err := fmt.Sscanf(l, "candidates: now %d, max %d; skyline: now %d,", &cand, new(int), &sky); err != nil {
				t.Fatalf("parse stats %q: %v", l, err)
			}
			return cand, sky
		}
	}
	t.Fatalf("no stats footer in output:\n%s", out)
	return 0, 0
}

// TestRunCheckpointRoundTrip proves that interrupting a session with a
// checkpoint and resuming it — with different batching and async settings —
// produces exactly the same event stream and final skyline state as one
// uninterrupted run.
func TestRunCheckpointRoundTrip(t *testing.T) {
	const n = 1200
	lines := genCSV(3, n)
	base := config{dims: 2, window: 300, thresholds: []float64{0.3}, batch: 1}

	full := runSession(t, base, lines)

	ck := filepath.Join(t.TempDir(), "ck.gob")
	first := base
	first.ckpt = ck
	out1 := runSession(t, first, lines[:n/2])

	second := base
	second.ckpt = ck
	second.batch = 7
	second.async = 16
	out2 := runSession(t, second, lines[n/2:])

	want := eventLines(full)
	got := append(eventLines(out1), eventLines(out2)...)
	if len(want) != len(got) {
		t.Fatalf("event count: uninterrupted %d, resumed %d", len(want), len(got))
	}
	// A restore bulk-reloads the R-trees, so events triggered by one push can
	// be discovered in a different tree-traversal order; the set of events —
	// which elements enter and leave the skyline — must be identical.
	sort.Strings(want)
	sort.Strings(got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d differs:\nuninterrupted: %s\nresumed:       %s", i, want[i], got[i])
		}
	}
	wc, ws := finalSizes(t, full)
	gc, gs := finalSizes(t, out2)
	if wc != gc || ws != gs {
		t.Fatalf("final sizes: uninterrupted cand=%d sky=%d, resumed cand=%d sky=%d", wc, ws, gc, gs)
	}
}

// TestRunSnapshotModeAsync checks snapshot-mode output with batched + async
// ingestion: every snapshot is printed after a Drain, so the reported stream
// position must be exact.
func TestRunSnapshotModeAsync(t *testing.T) {
	const n = 600
	lines := genCSV(5, n)
	cfg := config{
		dims: 2, window: 200, thresholds: []float64{0.3},
		snapshot: 150, batch: 4, async: 32, summary: false,
	}
	out := runSession(t, cfg, lines)
	var positions []int
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "@") {
			var at, sz int
			if _, err := fmt.Sscanf(l, "@%d skyline (%d points):", &at, &sz); err != nil {
				t.Fatalf("parse snapshot header %q: %v", l, err)
			}
			positions = append(positions, at)
		}
	}
	want := []int{150, 300, 450, 600}
	if len(positions) != len(want) {
		t.Fatalf("snapshot positions %v, want %v", positions, want)
	}
	for i := range want {
		if positions[i] != want[i] {
			t.Fatalf("snapshot positions %v, want %v", positions, want)
		}
	}
}

// TestRunRejectsBadBatch covers run()'s own validation.
func TestRunRejectsBadBatch(t *testing.T) {
	err := run(config{dims: 2, window: 10, thresholds: []float64{0.3}, batch: 0},
		strings.NewReader(""), new(bytes.Buffer), new(bytes.Buffer))
	if err == nil {
		t.Fatal("batch=0 accepted")
	}
}

// TestFlagDefaults pins every command-line flag's name and default value, so
// a refactor of the flag wiring cannot rename, drop or re-default one
// unnoticed.
func TestFlagDefaults(t *testing.T) {
	want := map[string]string{
		"dims": "2", "window": "100000", "period": "0", "q": "0.3",
		"snapshot": "0", "summary": "false", "f": "", "checkpoint": "",
		"batch": "1", "async": "0", "async-policy": "block", "http": "",
		"shards": "1", "router": "grid", "streams": "",
		"wal": "", "wal-fsync": "interval", "wal-policy": "failstop",
		"wal-segment-mb": "0", "wal-checkpoint-every": "0",
		"wal-fault": "", "wal-fault-seed": "0",
		"no-latency": "false", "slow-threshold": "0s", "latency-epoch": "0s",
		"replicate-listen": "", "replica-of": "", "promote": "",
		"repl-semisync-k": "0", "repl-ack-wait": "0s",
		"repl-fault": "", "repl-fault-seed": "0",
		"version": "false",
	}
	fs := flag.NewFlagSet("pskyline", flag.ContinueOnError)
	var cfg config
	bindFlags(fs, &cfg)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		got[f.Name] = f.DefValue
		if f.Usage == "" {
			t.Errorf("flag -%s has no usage string", f.Name)
		}
	})
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("flag -%s missing", name)
		} else if g != def {
			t.Errorf("flag -%s default %q, want %q", name, g, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected flag -%s", name)
		}
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg.dims != 2 || cfg.window != 100000 || cfg.batch != 1 || cfg.shards != 1 ||
		cfg.router != "grid" || cfg.walFsync != "interval" || !slices.Equal(cfg.thresholds, []float64{0.3}) {
		t.Fatalf("defaults not bound into config: %+v", cfg)
	}
	if err := fs.Parse([]string{"-q", "0.5, 0.2", "-wal-fault-seed", "7", "-slow-threshold", "2ms"}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cfg.thresholds, []float64{0.5, 0.2}) || cfg.walFaultSeed != 7 || cfg.slowThreshold != 2*time.Millisecond {
		t.Fatalf("parsed flags not bound into config: %+v", cfg)
	}
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-q", "0.5,x"}); err == nil {
		t.Fatal("bad -q list accepted")
	}
}
