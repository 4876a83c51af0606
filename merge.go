package pskyline

import (
	"cmp"
	"math/bits"
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

	// Each candidate's dominators in U, found once through the kd index and
	// listed by ascending rank (= ascending sequence): doms[off[i]:off[i+1]]
	// for cands[i]. Both passes multiply from these lists, so factors go in
	// ascending dominator sequence order exactly as a pairwise scan would.
	off, doms := dominatorRanks(cands)
	omp := make([]prob.Factor, len(cands))
	for i := range cands {
		omp[i] = prob.OneMinus(cands[i].Prob)
	}

	// Pass 1 — Pnew over the union: for each candidate, the product of
	// (1 − P) over its newer dominators in the union. Candidacy is decided
	// on the exact factor (log-space), same as the engine.
	qk := prob.FromFloat(ths[len(ths)-1])
	pnew := make([]prob.Factor, len(cands))
	keep := make([]bool, len(cands))
	for i := range cands {
		ds := doms[off[i]:off[i+1]]
		newer, _ := slices.BinarySearch(ds, int32(i))
		f := prob.One()
		for _, j := range ds[newer:] {
			f = f.Times(omp[j])
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
		ds := doms[off[i]:off[i+1]]
		older, _ := slices.BinarySearch(ds, int32(i))
		pold := prob.One()
		for _, j := range ds[:older] {
			if keep[j] {
				pold = pold.Times(omp[j])
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

// mergeLeaf is one leaf of the merge's kd index: at most geom.BlockMaxItems
// candidates packed as structure-of-arrays lanes (coordinate d of item k at
// lanes[d*len(ranks)+k]), their ranks in the seq-sorted union, and the
// leaf's min corner.
type mergeLeaf struct {
	lanes []float64
	ranks []int32
	min   []float64
}

// dominatorRanks lists, for every candidate of the seq-sorted slice cands,
// the ranks of the candidates that dominate it, ascending:
// doms[off[i]:off[i+1]] for cands[i].
//
// The ranks are split at the median into kd leaves (cycling through the
// dimensions) and each leaf is packed for the block dominance kernels. A
// leaf is scanned for x only if its min corner is ≤ x in every dimension:
// a dominator is ≤ x everywhere, so a leaf whose min exceeds x in some
// dimension holds none, and the pruning is exact. The dominators a scan
// finds arrive in leaf order; they are gathered through a bitmap indexed by
// rank, which hands them back in ascending rank order.
func dominatorRanks(cands []SkyPoint) (off, doms []int32) {
	n := len(cands)
	off = make([]int32, n+1)
	if n == 0 {
		return off, nil
	}
	dims := len(cands[0].Point)

	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	lanes := make([]float64, n*dims)
	var leaves []mergeLeaf
	var build func(lo, hi, d int)
	build = func(lo, hi, d int) {
		if hi-lo > geom.BlockMaxItems {
			slices.SortFunc(perm[lo:hi], func(a, b int32) int {
				return cmp.Or(cmp.Compare(cands[a].Point[d], cands[b].Point[d]), cmp.Compare(a, b))
			})
			mid := lo + (hi-lo)/2
			build(lo, mid, (d+1)%dims)
			build(mid, hi, (d+1)%dims)
			return
		}
		m := hi - lo
		lf := mergeLeaf{lanes: lanes[lo*dims : hi*dims], ranks: perm[lo:hi], min: make([]float64, dims)}
		copy(lf.min, cands[lf.ranks[0]].Point)
		for k, r := range lf.ranks {
			for d, v := range cands[r].Point {
				lf.lanes[d*m+k] = v
				lf.min[d] = min(lf.min[d], v)
			}
		}
		leaves = append(leaves, lf)
	}
	build(0, n, 0)

	bk := geom.BlockKernelsFor(dims)
	seen := make([]uint64, (n+63)/64)
	for i := range cands {
		p := geom.Point(cands[i].Point)
		lo, hi := len(seen), -1
	leaf:
		for li := range leaves {
			lf := &leaves[li]
			for d, v := range lf.min {
				if v > p[d] {
					continue leaf
				}
			}
			m := len(lf.ranks)
			for mask := bk.BlockDominates(p, lf.lanes, m, m); mask != 0; mask &= mask - 1 {
				r := lf.ranks[bits.TrailingZeros64(mask)]
				w := int(r >> 6)
				seen[w] |= 1 << (r & 63)
				lo, hi = min(lo, w), max(hi, w)
			}
		}
		for w := lo; w <= hi; w++ {
			for b := seen[w]; b != 0; b &= b - 1 {
				doms = append(doms, int32(w<<6|bits.TrailingZeros64(b)))
			}
			seen[w] = 0
		}
		off[i+1] = int32(len(doms))
	}
	return off, doms
}
