package pskyline

import (
	"cmp"
	"slices"

	"pskyline/internal/core"
	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

// mergeCandidateViews builds one global candidate view from per-shard
// candidate views. It is the query-time half of the sharding design and is
// EXACT, not approximate — DESIGN.md §13 gives the full argument; the
// essentials:
//
// Each shard maintains, over its slice of the window, the candidate set for
// the same threshold q_k: the elements x with shard-Pnew(x) ≥ q_k, where
// shard-Pnew multiplies (1 − P) over the shard's own newer dominators of x.
// Shard-Pnew(x) is an upper bound of the true window Pnew(x) (a sub-product
// of ≤1 factors), so the union U of the shard candidate sets is a superset
// of the true candidate set S — no true candidate is lost.
//
// The merge recomputes Pnew over U, which is exactly Pnew over the whole
// window for every x ∈ S: suppose some window dominator y of x newer than x
// is missing from U, and pick the NEWEST missing one. Every dominator z of
// y newer than y is in U (z ≻ y ≻ x and z newer than y means z is a newer
// dominator of x too; y was the newest missing one, so z is present). Those
// z live in y's own shard or elsewhere — but y ∉ U means y's shard evicted
// it: shard-Pnew(y) < q_k, i.e. the product of (1 − P(z)) over y's
// shard-local newer dominators is already < q_k. That product is a
// sub-product of Π_{z ∈ U, z newer, z ≻ x} (1 − P(z)) · (1 − P(y))… — in
// short, Pnew_U(x) ≤ shard-Pnew(y) < q_k, so x would fail the threshold
// with U's factors alone and x ∉ S. Contrapositive: for every x ∈ S the
// dominator sets over U and over the window coincide, the recomputed Pnew,
// Pold and Psky use the identical factor multiset, and the merged candidate
// set {x ∈ U : Pnew_U(x) ≥ q_k} equals S exactly.
//
// Determinism: factors are multiplied in ascending dominator sequence
// order, so two merges over the same logical candidates produce bit-equal
// probabilities regardless of how the elements were partitioned. The
// differential test suite leans on this by running the sharded parts and a
// single-engine oracle view through this same function and comparing the
// encoded bytes.
func mergeCandidateViews(parts []*View) *View {
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
