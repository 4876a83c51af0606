package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// smallSizes shrinks a run so all three workloads, traced and untraced,
// finish in well under a minute.
func smallSizes() sizes {
	return sizes{
		window: 500, seconds: 2 * time.Second, rounds: 2,
		setups: 2, recoveries: 2, tail: 1024,
		ladderReqs: 100, replReqs: 20, ladderElems: 4096,
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestShortRun runs every workload in short mode, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and that every output check passes.
func TestShortRun(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if _, err := findWorkload(sw.Name); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "pskyline")
	build := exec.Command("go", "build", "-o", bin, "pskyline/cmd/pskyline")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for trace, want := range map[bool][]specMetric{false: spec.EndToEnd, true: spec.PerLayer} {
			env := &runEnv{bin: bin, w: w, sz: smallSizes(), seed: 7, workdir: filepath.Join(dir, "run")}
			if trace {
				env.tr = newTracer()
			}
			var out bytes.Buffer
			res, err := run(env, "test", filepath.Join(dir, "traces"), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, "traces", w.name+"-seed7.json")); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
			}
		}
	}
}
