package main

import (
	"fmt"
	"strconv"
	"time"

	"pskyline"
	"pskyline/internal/streamgen"
)

// The constants every workload shares: the continuous q-skyline at q = 0.3
// over a count-based window, pre-filled to twice the window in 512-element
// requests so expiry runs in steady state before anything is measured.
const (
	threshold    = 0.3
	prefillBatch = 512
)

// workload is one traffic mix against the serve-mode binary. See README.md
// for why each was chosen and which layer it loads.
type workload struct {
	name     string
	dims     int
	dist     streamgen.Distribution
	shards   int  // -shards of the server (1 = single engine)
	semisync bool // primary with -repl-semisync-k 1 plus one replica process
	batch    int  // elements per write request in the measured phases
	// rate is the open-loop write request rate of the main phase; 0 makes
	// the main phase a closed loop that also measures ingest capacity.
	rate float64
	// readRate is the open-loop GET /skyline rate of the main phase. Where
	// writes are open loop too, the two rates have no small common multiple,
	// so reads land at every phase of the write cycle instead of colliding
	// with the same point of it each time.
	readRate float64
	// readEvery interleaves one skyline read per this many writes when the
	// ladder replays the workload in process (the main phase's read:write
	// request ratio).
	readEvery int
}

var workloads = []workload{
	{name: "sync-stream", dims: 3, dist: streamgen.Anticorrelated, shards: 1, batch: 1, rate: 600,
		readRate: 47, readEvery: 13},
	// A merged read of two shards at d=5 takes ~40 ms under bulk load, so
	// reads come at 10/s.
	{name: "bulk-recover", dims: 5, dist: streamgen.Independent, shards: 2, batch: 512,
		readRate: 10, readEvery: 6},
	{name: "semisync-repl", dims: 3, dist: streamgen.Anticorrelated, shards: 1, semisync: true, batch: 16, rate: 65,
		readRate: 47, readEvery: 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sizes scales one run. fullSizes is the benchmark; the self-test uses
// smaller ones so all three workloads finish in seconds.
type sizes struct {
	window      int
	seconds     time.Duration // measured time, split into rounds
	rounds      int           // rounds of main phase + capacity phase; interleaving them exposes every metric to the same machine conditions
	setups      int           // set-ups per run, the measured one first and the rest after every other round; setup_s is their median
	recoveries  int           // the first this many rounds each time one restart of the crash image; recover_s is their median
	tail        int           // log records in the crash image after its checkpoint
	ladderReqs  int           // main-phase requests each in-process rung replays
	replReqs    int           // at most this many of them on the semi-sync rung
	ladderElems int           // cap on ladderReqs × batch (bulk requests are large)
}

func fullSizes(seconds time.Duration) sizes {
	return sizes{
		window: 10000, seconds: seconds, rounds: 8,
		setups: 5, recoveries: 8 + maxExtraRounds, tail: 32768,
		ladderReqs: 2000, replReqs: 200, ladderElems: 65536,
	}
}

// mainShare is the part of each round given to the main phase of an
// open-loop workload; the rest measures closed-loop capacity.
const mainShare = 0.8

// roundDurs splits one round into its main phase and capacity phase. A
// closed-loop workload's main phase is the whole round and measures
// capacity itself.
func (w workload) roundDurs(sz sizes) (main, capacity time.Duration) {
	round := sz.seconds / time.Duration(sz.rounds)
	if w.rate == 0 {
		return round, 0
	}
	main = time.Duration(float64(round) * mainShare)
	return main, round - main
}

// ladderReqs is how many main-phase requests the in-process rungs replay.
func (w workload) ladderReqs(sz sizes) int {
	n := sz.ladderReqs
	if n*w.batch > sz.ladderElems {
		n = sz.ladderElems / w.batch
	}
	return n
}

func (sz sizes) prefill() int { return (2*sz.window + prefillBatch - 1) / prefillBatch * prefillBatch }

// stream is the workload's element sequence, generated from the seed. It
// remembers the last window elements for the oracle check.
type stream struct {
	gen    *streamgen.Gen
	drawn  int
	recent []streamgen.Element // ring of the last len(recent) elements
}

func newStream(w workload, seed int64, window int) *stream {
	return &stream{
		gen:    streamgen.New(w.dims, w.dist, streamgen.UniformProb{}, seed),
		recent: make([]streamgen.Element, window),
	}
}

// take draws the next n elements.
func (s *stream) take(n int) []streamgen.Element {
	out := make([]streamgen.Element, n)
	for i := range out {
		e := s.gen.Next()
		out[i] = e
		s.recent[s.drawn%len(s.recent)] = e
		s.drawn++
	}
	return out
}

// window returns the last min(drawn, window) elements, oldest first, with
// the sequence number of the first.
func (s *stream) window() ([]streamgen.Element, uint64) {
	n := len(s.recent)
	if s.drawn < n {
		return append([]streamgen.Element(nil), s.recent[:s.drawn]...), 0
	}
	out := make([]streamgen.Element, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.recent[(s.drawn+i)%n])
	}
	return out, uint64(s.drawn - n)
}

// ndjson appends the /push wire form of els to buf. Coordinates use the
// shortest exact float form, so the server ingests the very values the
// oracle and the in-process rungs see.
func ndjson(buf []byte, els []streamgen.Element) []byte {
	for _, e := range els {
		buf = append(buf, `{"point":[`...)
		for i, v := range e.Point {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, `],"prob":`...)
		buf = strconv.AppendFloat(buf, e.P, 'g', -1, 64)
		buf = append(buf, "}\n"...)
	}
	return buf
}

// elements converts generated elements to the library's input type.
func elements(els []streamgen.Element) []pskyline.Element {
	out := make([]pskyline.Element, len(els))
	for i, e := range els {
		out[i] = pskyline.Element{Point: []float64(e.Point), Prob: e.P}
	}
	return out
}
