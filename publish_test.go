package pskyline

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"pskyline/internal/aggrtree"
	"pskyline/internal/streamgen"
)

// TestIncrementalPublishMatchesBandResults is the differential for the
// rank-merge publication: after every write, each band of the published
// view must gob-encode identically to a from-scratch core.BandResults
// extraction with payloads attached. The writes cover element-wise and
// batched pushes, a time-based window, threshold changes mid-stream
// (renumbered bands publish cold), a checkpoint restore and sharded
// members. Elements with P = 1 exercise exact-zero factors. The second
// run poisons freed items, so a recycled item that kept a stale point
// clone or rank would corrupt a view.
func TestIncrementalPublishMatchesBandResults(t *testing.T) {
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poison=%v", poison), func(t *testing.T) {
			if poison {
				old := aggrtree.PoisonEnabled()
				aggrtree.SetPoison(true)
				defer aggrtree.SetPoison(old)
			}
			t.Run("push", func(t *testing.T) { publishDiffCountWindow(t, 1) })
			t.Run("pushbatch", func(t *testing.T) { publishDiffCountWindow(t, 7) })
			t.Run("period", publishDiffPeriod)
			t.Run("thresholds", publishDiffThresholds)
			t.Run("open", publishDiffOpen)
			t.Run("sharded", publishDiffSharded)
		})
	}
}

// publishStream returns n elements over a 3-d space: payloads on most,
// none on some, and occurrence probability 1 on every ninth.
func publishStream(seed int64, n int) []Element {
	r := rand.New(rand.NewSource(seed))
	out := make([]Element, n)
	for i := range out {
		p := 0.05 + 0.95*r.Float64()
		if i%9 == 4 {
			p = 1
		}
		var data any
		if i%5 != 0 {
			data = fmt.Sprintf("e%d", i)
		}
		x := r.Float64()
		out[i] = Element{
			Point: []float64{x, 1 - x + 0.2*r.Float64(), r.Float64()},
			Prob:  p,
			TS:    int64(i / 2),
			Data:  data,
		}
	}
	return out
}

// checkPublishedBands compares every band of m's published view, byte for
// byte, with a fresh extraction from the engine.
func checkPublishedBands(t *testing.T, m *Monitor, step string) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.Load()
	nb := len(m.eng.Thresholds()) + 1
	if len(v.bands) != nb {
		t.Fatalf("%s: view has %d bands, engine %d", step, len(v.bands), nb)
	}
	for i := 0; i < nb; i++ {
		rs := m.eng.BandResults(i)
		want := make([]SkyPoint, len(rs))
		for j, r := range rs {
			want[j] = SkyPoint{Seq: r.Seq, Point: r.Point, Prob: r.P, Psky: r.Psky, TS: r.TS, Data: m.data[r.Seq]}
		}
		if got, exp := gobBands(t, v.bands[i]), gobBands(t, want); !bytes.Equal(got, exp) {
			t.Fatalf("%s: band %d differs from a fresh extraction\n got %v\nwant %v", step, i, v.bands[i], want)
		}
	}
}

func gobBands(t *testing.T, b []SkyPoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ B []SkyPoint }{b}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// publishDiffCountWindow streams through a count window in writes of up
// to batch elements (1 = element-wise Push).
func publishDiffCountWindow(t *testing.T, batch int) {
	m, err := NewMonitor(Options{Dims: 3, Window: 150, Thresholds: []float64{0.6, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	els := publishStream(int64(batch), 900)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < len(els); {
		n := 1
		if batch > 1 {
			n = 1 + r.Intn(batch)
		}
		if i+n > len(els) {
			n = len(els) - i
		}
		if n == 1 {
			_, err = m.Push(els[i])
		} else {
			_, err = m.PushBatch(els[i : i+n])
		}
		if err != nil {
			t.Fatal(err)
		}
		i += n
		checkPublishedBands(t, m, fmt.Sprintf("after %d elements", i))
	}
}

func publishDiffPeriod(t *testing.T) {
	m, err := NewMonitor(Options{Dims: 3, Period: 60, Thresholds: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, e := range publishStream(11, 700) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
		checkPublishedBands(t, m, fmt.Sprintf("push %d", i))
	}
}

func publishDiffThresholds(t *testing.T) {
	m, err := NewMonitor(Options{Dims: 3, Window: 120, Thresholds: []float64{0.2}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, e := range publishStream(12, 800) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
		checkPublishedBands(t, m, fmt.Sprintf("push %d", i))
		switch i % 200 {
		case 50:
			err = m.AddThreshold(0.7)
		case 100:
			err = m.AddThreshold(0.45)
		case 130:
			err = m.RemoveThreshold(0.7)
		case 170:
			err = m.RemoveThreshold(0.45)
		default:
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkPublishedBands(t, m, fmt.Sprintf("threshold change after push %d", i))
	}
}

// publishDiffOpen checks the first view a durable reopen publishes from a
// checkpoint plus log tail, and every view after it.
func publishDiffOpen(t *testing.T) {
	opt := Options{Dims: 3, Window: 140, Thresholds: []float64{0.5, 0.3},
		Durability: Durability{Dir: t.TempDir(), Fsync: "never", CheckpointEvery: 200}}
	els := publishStream(13, 900)
	for round := 0; round < 3; round++ {
		m, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		checkPublishedBands(t, m, fmt.Sprintf("open %d", round))
		for i, e := range els[round*300 : (round+1)*300] {
			if _, err := m.Push(e); err != nil {
				t.Fatal(err)
			}
			checkPublishedBands(t, m, fmt.Sprintf("round %d push %d", round, i))
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func publishDiffSharded(t *testing.T) {
	s, err := NewSharded(ShardedOptions{
		Options: Options{Dims: 3, Window: 160, Thresholds: []float64{0.3}},
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	els := publishStream(14, 800)
	for i, w := 0, 0; i < len(els); w++ {
		n := 1
		if w%2 == 1 {
			n = min(3, len(els)-i)
			_, err = s.PushBatch(els[i : i+n])
		} else {
			_, err = s.Push(els[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		i += n
		for k, sh := range s.shards {
			checkPublishedBands(t, sh, fmt.Sprintf("shard %d after %d elements", k, i))
		}
	}
}

// TestSteadyStatePushAllocs pins the rank-merge publication's allocation
// profile: a steady-state synchronous Push allocates the view header, the
// rebuilt band slices and the new element's point clone, but nothing per
// unchanged band element (a from-scratch extraction cloned every point).
func TestSteadyStatePushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const window = 1024
	const runs = 2000
	m, err := NewMonitor(Options{Dims: 3, Window: window, Thresholds: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	src := streamgen.New(3, streamgen.Anticorrelated, nil, 1)
	els := make([]Element, 3*window+runs+16)
	for i := range els {
		e := src.Next()
		els[i] = Element{Point: e.Point, Prob: e.P, TS: e.TS}
	}
	i := 0
	for ; i < 3*window; i++ {
		if _, err := m.Push(els[i]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := m.Push(els[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 10 {
		t.Fatalf("steady-state Push allocates %.2f objects, want <= 10 (|S| = %d)", allocs, m.Stats().Candidates)
	}
	t.Logf("%.2f allocs/push at |S| = %d", allocs, m.Stats().Candidates)
}
