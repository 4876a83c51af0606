package pskyline

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pskyline/internal/core"
	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

// mergePairwise is the quadratic merge the indexed mergeCandidateViews
// replaced, kept verbatim as the oracle of TestMergeMatchesPairwise: every
// candidate is compared with every other one, twice.
func mergePairwise(parts []*View) *View {
	ths := parts[0].thresholds
	var processed uint64
	var counters core.Counters
	n := 0
	for _, p := range parts {
		processed += p.processed
		n += p.NumCandidates()
		c := p.counters
		counters.Pushes += c.Pushes
		counters.Expiries += c.Expiries
		counters.NodesVisited += c.NodesVisited
		counters.ItemsTouched += c.ItemsTouched
		counters.LazyApplied += c.LazyApplied
		counters.Removals += c.Removals
		counters.Moves += c.Moves
	}

	// Gather the candidate union in ascending sequence (= arrival) order.
	cands := make([]SkyPoint, 0, n)
	for _, p := range parts {
		for _, b := range p.bands {
			cands = append(cands, b...)
		}
	}
	slices.SortFunc(cands, func(x, y SkyPoint) int { return cmp.Compare(x.Seq, y.Seq) })

	// Pass 1 — Pnew over the union: for each candidate, the product of
	// (1 − P) over its newer dominators in the union, factors in ascending
	// dominator sequence order. Candidacy is decided on the exact factor
	// (log-space), same as the engine.
	qk := prob.FromFloat(ths[len(ths)-1])
	pnew := make([]prob.Factor, len(cands))
	keep := make([]bool, len(cands))
	for i := range cands {
		f := prob.One()
		pi := geom.Point(cands[i].Point)
		for j := i + 1; j < len(cands); j++ {
			if geom.Point(cands[j].Point).Dominates(pi) {
				f = f.Times(prob.OneMinus(cands[j].Prob))
			}
		}
		pnew[i] = f
		keep[i] = f.AtLeast(qk)
	}

	// Pass 2 — Pold over the kept candidates: older dominators that
	// survived pass 1, ascending sequence order, then the final banding by
	// Psky = P · Pnew · Pold.
	qs := make([]prob.Factor, len(ths))
	for i, q := range ths {
		qs[i] = prob.FromFloat(q)
	}
	bands := make([][]SkyPoint, len(ths)+1)
	kept := 0
	for i := range cands {
		if !keep[i] {
			continue
		}
		kept++
		pold := prob.One()
		pi := geom.Point(cands[i].Point)
		for j := 0; j < i; j++ {
			if keep[j] && geom.Point(cands[j].Point).Dominates(pi) {
				pold = pold.Times(prob.OneMinus(cands[j].Prob))
			}
		}
		psky := prob.FromFloat(cands[i].Prob).Times(pnew[i]).Times(pold)
		sp := cands[i]
		sp.Psky = psky.Float()
		band := len(qs)
		for b, q := range qs {
			if psky.AtLeast(q) {
				band = b
				break
			}
		}
		bands[band] = append(bands[band], sp)
	}

	// Band order: descending skyline probability, ties by ascending
	// sequence — the order core.BandResults produces.
	for b := range bands {
		slices.SortFunc(bands[b], func(x, y SkyPoint) int { return bandOrder(x.Psky, x.Seq, y.Psky, y.Seq) })
	}

	return &View{
		processed:  processed,
		thresholds: ths,
		bands:      bands,
		stats: Stats{
			Processed:  processed,
			Candidates: kept,
			Skyline:    len(bands[0]),
		},
		counters: counters,
	}
}

// mergeTestParts builds nParts candidate views whose union holds n elements
// of dimensionality dims: coordinates mix a small integer grid (shared
// coordinates), exact copies of earlier points (duplicates) and free
// floats; probabilities include exact 1s (zero factors) and tiny values.
// Elements are spread over random parts and random bands, so some parts
// may be empty.
func mergeTestParts(r *rand.Rand, dims, n, nParts int, ths []float64) []*View {
	parts := make([]*View, nParts)
	for i := range parts {
		parts[i] = &View{
			processed:  uint64(r.Intn(1000)),
			thresholds: ths,
			bands:      make([][]SkyPoint, len(ths)+1),
			counters:   core.Counters{Pushes: uint64(r.Intn(100)), Moves: uint64(r.Intn(100))},
		}
	}
	var pts [][]float64
	seq := uint64(0)
	for range n {
		seq += 1 + uint64(r.Intn(3))
		var pt []float64
		if len(pts) > 0 && r.Intn(10) == 0 {
			pt = slices.Clone(pts[r.Intn(len(pts))])
		} else {
			pt = make([]float64, dims)
			for d := range pt {
				if r.Intn(3) == 0 {
					pt[d] = float64(r.Intn(6))
				} else {
					pt[d] = r.Float64() * 6
				}
			}
		}
		pts = append(pts, pt)
		p := 1 - r.Float64()
		switch r.Intn(30) {
		case 0:
			p = 1
		case 1:
			p = 1e-300
		}
		v := parts[r.Intn(nParts)]
		b := r.Intn(len(v.bands))
		v.bands[b] = append(v.bands[b], SkyPoint{Seq: seq, Point: pt, Prob: p, TS: int64(seq), Data: int(seq)})
	}
	return parts
}

// mergeDump gob-encodes everything a merged view exposes.
func mergeDump(t *testing.T, v *View) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Processed  uint64
		Thresholds []float64
		Bands      [][]SkyPoint
		Stats      Stats
		Counters   core.Counters
	}{v.processed, v.thresholds, v.bands, v.stats, v.counters})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeMatchesPairwise pins the indexed merge to the pairwise oracle:
// gob-identical views and equal Stats over seeded random part sets at the
// unrolled (d=2,3,5) and generic (d=1,6) block kernels, 1–4 parts, union
// sizes around the 64-item leaf boundary and above 1000, ties, duplicates,
// zero factors and tiny probabilities. The sharded differential tests run
// both of their sides through the same merge, so only this test can tell
// a wrong dominator set or a wrong multiplication order from a right one.
func TestMergeMatchesPairwise(t *testing.T) {
	thSets := [][]float64{{0.3}, {0.7, 0.3}, {0.9, 0.5, 0.1}}
	seed := int64(1)
	for _, dims := range []int{1, 2, 3, 5, 6} {
		for _, n := range []int{0, 1, 63, 64, 65, 129, 1100} {
			for nParts := 1; nParts <= 4; nParts++ {
				seed++
				ths := thSets[int(seed)%len(thSets)]
				name := fmt.Sprintf("d=%d/n=%d/parts=%d/k=%d", dims, n, nParts, len(ths))
				t.Run(name, func(t *testing.T) {
					parts := mergeTestParts(rand.New(rand.NewSource(seed)), dims, n, nParts, ths)
					want, got := mergePairwise(parts), mergeCandidateViews(parts)
					if got.Stats() != want.Stats() {
						t.Fatalf("stats %+v, want %+v", got.Stats(), want.Stats())
					}
					if !bytes.Equal(mergeDump(t, got), mergeDump(t, want)) {
						t.Fatalf("merged view differs from the pairwise merge (sizes %v vs %v)", got.BandSizes(), want.BandSizes())
					}
				})
			}
		}
	}
}
