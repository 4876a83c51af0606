package pskyline_test

import (
	"bytes"
	"math/rand"
	"testing"

	"pskyline"
)

// TestMonitorSnapshotRoundTrip checkpoints a monitor with payloads mid-
// stream and verifies the restored monitor continues identically, payloads
// included.
func TestMonitorSnapshotRoundTrip(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 60, Thresholds: []float64{0.3}})
	r := rand.New(rand.NewSource(9))
	push := func(mm *pskyline.Monitor, i int) {
		_, err := mm.Push(pskyline.Element{
			Point: []float64{r.Float64(), r.Float64()},
			Prob:  1 - r.Float64(),
			Data:  i,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		push(m, i)
	}

	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	entered := 0
	restored, err := pskyline.RestoreMonitor(&buf, pskyline.RestoreOptions{
		OnEnter: func(pskyline.SkyPoint) { entered++ },
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func() {
		a, b := m.Skyline(), restored.Skyline()
		if len(a) != len(b) {
			t.Fatalf("skylines %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].Data != b[i].Data {
				t.Fatalf("member %d: %+v vs %+v", i, a[i], b[i])
			}
		}
		sa, sb := m.Stats(), restored.Stats()
		if sa != sb {
			t.Fatalf("stats %+v vs %+v", sa, sb)
		}
	}
	check()

	// Continue both in lockstep on identical elements; the restored
	// monitor's callback must fire.
	for i := 200; i < 400; i++ {
		el := pskyline.Element{
			Point: []float64{r.Float64(), r.Float64()},
			Prob:  1 - r.Float64(),
			Data:  i,
		}
		if _, err := m.Push(el); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Push(el); err != nil {
			t.Fatal(err)
		}
	}
	check()
	if entered == 0 {
		t.Fatal("restored OnEnter callback never fired")
	}
}

func TestRestoreMonitorGarbage(t *testing.T) {
	if _, err := pskyline.RestoreMonitor(bytes.NewReader(nil), pskyline.RestoreOptions{}); err == nil {
		t.Fatal("empty restore accepted")
	}
}

// FuzzSnapshotDecode feeds mutated checkpoint bytes to RestoreMonitor — the
// decoder a replica runs on checkpoints received over the network. Every
// input must be refused with an error or yield a monitor that works: it
// ingests, answers queries, reports metrics and checkpoints again. A panic
// anywhere on that path fails the fuzzer.
func FuzzSnapshotDecode(f *testing.F) {
	for _, dims := range []int{2, 3} {
		m, err := pskyline.NewMonitor(pskyline.Options{Dims: dims, Window: 40, Thresholds: []float64{0.6, 0.3}})
		if err != nil {
			f.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(dims)))
		for i := 0; i < 100; i++ {
			pt := make([]float64, dims)
			for d := range pt {
				pt[d] = float64(r.Intn(20))
			}
			p := 1 - r.Float64()
			if i%7 == 0 {
				p = 1 // certain elements put exact zero factors in the checkpoint
			}
			if _, err := m.Push(pskyline.Element{Point: pt, Prob: p, TS: int64(i), Data: i}); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		m.Close()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := pskyline.RestoreMonitor(bytes.NewReader(data), pskyline.RestoreOptions{})
		if err != nil {
			return
		}
		defer m.Close()
		v := m.View()
		v.Candidates()
		if _, err := v.Query(1); err != nil {
			t.Fatalf("restored view refuses Query(1): %v", err)
		}
		// The checkpoint's dimensionality is not exported: offer each small
		// one, the wrong ones are rejected as invalid input.
		for dims := 1; dims <= 6; dims++ {
			pt := make([]float64, dims)
			for i := 0; i < 8; i++ {
				for d := range pt {
					pt[d] = float64((i*7 + d*3) % 5)
				}
				_, _ = m.Push(pskyline.Element{Point: pt, Prob: 0.5, TS: int64(i)})
			}
		}
		m.Skyline()
		m.Stats()
		m.Metrics()
		if _, err := m.TopK(3, 1); err != nil {
			t.Fatalf("restored monitor refuses TopK: %v", err)
		}
		var buf bytes.Buffer
		if err := m.WritePrometheus(&buf); err != nil {
			t.Fatalf("restored monitor cannot export metrics: %v", err)
		}
		if err := m.Snapshot(&buf); err != nil {
			t.Fatalf("restored monitor cannot checkpoint: %v", err)
		}
	})
}
