package pskyline_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"pskyline"
)

// TestMonitorMetricsSnapshot drives a window's worth of churn through a
// Monitor and checks the observability snapshot against the ground truth
// the query API reports.
func TestMonitorMetricsSnapshot(t *testing.T) {
	const n = 4000
	m := mustMonitor(t, pskyline.Options{
		Dims: 3, Window: 512, Thresholds: []float64{0.3},
	})
	defer m.Close()
	for _, e := range genElements(17, n, 3, true) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}

	met := m.Metrics()
	if met.Stats != m.Stats() {
		t.Errorf("Metrics().Stats = %+v, Stats() = %+v", met.Stats, m.Stats())
	}
	if met.Counters != m.Counters() {
		t.Errorf("Metrics().Counters = %+v, Counters() = %+v", met.Counters, m.Counters())
	}
	if met.Counters.Pushes != n {
		t.Errorf("Pushes = %d, want %d", met.Counters.Pushes, n)
	}
	if met.SkylineEnters == 0 {
		t.Error("no skyline enters over an anti-correlated stream")
	}
	// Every element currently in the skyline entered and has not left:
	// churn must reconcile with the reported size.
	if got := int(met.SkylineEnters - met.SkylineLeaves); got != met.Stats.Skyline {
		t.Errorf("enters-leaves = %d, skyline size = %d", got, met.Stats.Skyline)
	}
	if met.ViewPublishes < n {
		t.Errorf("ViewPublishes = %d, want >= %d (one per synchronous Push)", met.ViewPublishes, n)
	}
	if met.WindowFill != 512 {
		t.Errorf("WindowFill = %d, want 512", met.WindowFill)
	}
	if met.MeanProb <= 0 || met.MeanProb > 1 {
		t.Errorf("MeanProb = %v out of (0,1]", met.MeanProb)
	}
	if met.TheorySkylineBound <= 0 || met.TheoryCandidateBound <= 0 {
		t.Errorf("theory bounds not evaluated: sky=%v cand=%v",
			met.TheorySkylineBound, met.TheoryCandidateBound)
	}
	if met.LastPublish.IsZero() {
		t.Error("LastPublish is zero")
	}
	if len(met.Stages) != 5 {
		t.Fatalf("got %d stage summaries, want 5", len(met.Stages))
	}
	for _, st := range met.Stages {
		if st.Count == 0 {
			t.Errorf("stage %s recorded nothing", st.Stage)
		}
		if st.Count > 0 && (st.P50Ns <= 0 || st.MaxNs == 0) {
			t.Errorf("stage %s: degenerate latency summary %+v", st.Stage, st)
		}
	}
}

// TestTraceRing checks the bounded structured trace: depth, ordering,
// direction flags and payload sanity, including after the ring wraps.
func TestTraceRing(t *testing.T) {
	const depth = 8
	m := mustMonitor(t, pskyline.Options{
		Dims: 2, Window: 128, Thresholds: []float64{0.3}, TraceDepth: depth,
	})
	defer m.Close()
	for _, e := range genElements(23, 2000, 2, true) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	met := m.Metrics()
	if met.SkylineEnters+met.SkylineLeaves <= depth {
		t.Fatalf("only %d transitions, need > %d to exercise wrap",
			met.SkylineEnters+met.SkylineLeaves, depth)
	}
	tr := m.Trace()
	if len(tr) != depth {
		t.Fatalf("Trace() returned %d events, want %d after wrap", len(tr), depth)
	}
	for i, ev := range tr {
		if i > 0 && ev.Processed < tr[i-1].Processed {
			t.Errorf("trace not oldest-first at %d: %d < %d", i, ev.Processed, tr[i-1].Processed)
		}
		if len(ev.Point) != 2 {
			t.Errorf("event %d: point has %d dims, want 2", i, len(ev.Point))
		}
		if ev.Prob <= 0 || ev.Prob > 1 {
			t.Errorf("event %d: prob %v out of (0,1]", i, ev.Prob)
		}
		if ev.Psky < 0 || ev.Psky > 1 {
			t.Errorf("event %d: psky %v out of [0,1]", i, ev.Psky)
		}
		if ev.Entered != (ev.ToBand == 0) {
			t.Errorf("event %d: Entered=%v but ToBand=%d", i, ev.Entered, ev.ToBand)
		}
		if ev.At.IsZero() {
			t.Errorf("event %d: zero timestamp", i)
		}
	}
}

// TestMonitorExporters scrapes a live Monitor through both exporters and
// checks the key series are present and well-formed.
func TestMonitorExporters(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{
		Dims: 2, Window: 256, Thresholds: []float64{0.5, 0.3},
	})
	defer m.Close()
	for _, e := range genElements(29, 1000, 2, true) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE pskyline_pushes_total counter",
		"pskyline_pushes_total 1000",
		"# TYPE pskyline_stage_seconds histogram",
		`pskyline_stage_seconds_bucket{stage="probe",le="+Inf"}`,
		`pskyline_stage_seconds_bucket{stage="expire",le="+Inf"}`,
		"pskyline_skyline_enters_total",
		"pskyline_candidates ",
		"pskyline_theory_skyline_bound",
		"pskyline_theory_candidate_bound",
		"pskyline_threshold_max 0.5",
		"pskyline_threshold_min 0.3",
		"pskyline_window_fill 256",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}

	var jsBuf bytes.Buffer
	if err := m.WriteMetricsJSON(&jsBuf); err != nil {
		t.Fatal(err)
	}
	var js map[string]any
	if err := json.Unmarshal(jsBuf.Bytes(), &js); err != nil {
		t.Fatalf("WriteMetricsJSON produced invalid JSON: %v", err)
	}
	if v, ok := js["pskyline_pushes_total"].(float64); !ok || v != 1000 {
		t.Errorf("JSON pskyline_pushes_total = %v, want 1000", js["pskyline_pushes_total"])
	}
	if _, ok := js["pskyline_stage_seconds"]; !ok {
		t.Error("JSON output missing pskyline_stage_seconds")
	}
}

// TestViewElemCounters checks the rank-merge publication counters: a cold
// publish (a threshold change renumbers every band) re-sorts the whole
// candidate set, steady-state pushes mostly reuse the previous view, and
// both counters are exported on /metrics with the Metrics() values.
func TestViewElemCounters(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{
		Dims: 3, Window: 512, Thresholds: []float64{0.3},
	})
	defer m.Close()
	els := genElements(31, 3000, 3, true)
	for _, e := range els[:2000] {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}

	before := m.Metrics()
	if err := m.AddThreshold(0.6); err != nil {
		t.Fatal(err)
	}
	after := m.Metrics()
	if got, want := after.ViewElemsResorted-before.ViewElemsResorted, uint64(m.View().NumCandidates()); got != want {
		t.Errorf("cold publish re-sorted %d elements, want every candidate (%d)", got, want)
	}
	if got := after.ViewElemsReused - before.ViewElemsReused; got != 0 {
		t.Errorf("cold publish reused %d elements, want 0", got)
	}

	for _, e := range els[2000:] {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	met := m.Metrics()
	reused := met.ViewElemsReused - after.ViewElemsReused
	resorted := met.ViewElemsResorted - after.ViewElemsResorted
	if resorted == 0 || reused < 5*resorted {
		t.Errorf("steady state: %d elements reused, %d re-sorted; want reuse to dominate", reused, resorted)
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE pskyline_view_elems_reused_total counter",
		fmt.Sprintf("pskyline_view_elems_reused_total %d\n", met.ViewElemsReused),
		"# TYPE pskyline_view_elems_resorted_total counter",
		fmt.Sprintf("pskyline_view_elems_resorted_total %d\n", met.ViewElemsResorted),
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	t.Logf("steady state: reused %d, re-sorted %d", reused, resorted)
}
