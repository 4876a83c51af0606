// Package aggrtree implements the in-memory aggregate R-trees of Section
// IV-A of the paper.
//
// A tree stores uncertain stream elements (Item) at its leaves. Every entry
// (node) additionally carries the paper's aggregate information:
//
//   - Pnoc(E): Π (1 − P(e)) over the elements rooted at E;
//   - lazy multipliers Pnew_global(E) and Pold_global(E) that record,
//     without visiting descendants, that every element under E gained new
//     dominators (Pnew_global) or lost departed dominators (Pold_global);
//   - Psky_min/max(E) and Pnew_min/max(E), the minimum and maximum skyline
//     and new-dominance probabilities of the elements under E, excluding
//     E's own lazy multipliers.
//
// The skyline engine (internal/core) drives the trees: it classifies entries
// by dominance, multiplies lazies onto fully dominated entries, pushes
// lazies down only along the paths it actually descends, and moves whole
// entries between trees when a subtree changes membership class wholesale.
package aggrtree

import (
	"fmt"

	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

// Item is one uncertain stream element held by an aggregate R-tree. The
// fields Pnew and Pold are the element's current probabilities restricted to
// the candidate set, as maintained by the engine; they are only meaningful
// after the lazy multipliers on the element's root-to-leaf path have been
// pushed down (see Tree.ItemProbs for a read-only view that accounts for
// pending lazies).
type Item struct {
	Point geom.Point // spatial location (smaller is better on every dim)
	P     float64    // occurrence probability, (0, 1]
	Seq   uint64     // arrival position κ(a) in the stream
	TS    int64      // optional timestamp for time-based windows

	// Pnew is Π (1 − P(a')) over candidates a' that dominate the item and
	// arrived after it. By Theorem 2 this equals the unrestricted value.
	Pnew prob.Factor
	// Pold is Π (1 − P(a')) over candidates a' that dominate the item and
	// arrived before it, restricted to the current candidate set.
	Pold prob.Factor

	// Band is the index of the threshold band tree currently holding the
	// item (0 = highest-probability band). Maintained by the engine.
	Band int

	pf     prob.Factor // FromFloat(P), cached
	oneMin prob.Factor // OneMinus(P), cached
	leaf   *Node       // leaf currently containing the item

	// freed marks an item sitting in an ItemPool freelist; attachItem and
	// CheckInvariants reject freed items.
	freed bool

	// Read-view publication bookkeeping, owned by the view publisher: the
	// band and rank the item held in the last view that rebuilt its band,
	// the skyline probability factor it was published with, and one
	// immutable heap clone of Point shared by every published copy. pubRank
	// stores rank+1, so the zero value means "never published" and items
	// built by NewItem, bulk-load or restore need no setup.
	pubBand  int32
	pubRank  int32
	pubPsky  prob.Factor
	pubPoint geom.Point
}

// NewItem returns an item with Pnew = Pold = 1 for an element arriving with
// position seq.
func NewItem(pt geom.Point, p float64, seq uint64) *Item {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("aggrtree: occurrence probability %v out of (0,1]", p))
	}
	return &Item{
		Point:  pt,
		P:      p,
		Seq:    seq,
		Pnew:   prob.One(),
		Pold:   prob.One(),
		pf:     prob.FromFloat(p),
		oneMin: prob.OneMinus(p),
	}
}

// Psky returns the item's skyline probability P(a)·Pold(a)·Pnew(a) from its
// stored fields. Like Pnew/Pold it excludes lazy multipliers pending on the
// item's path.
func (it *Item) Psky() prob.Factor {
	return it.pf.Times(it.Pnew).Times(it.Pold)
}

// PF returns FromFloat(P), the item's occurrence probability as a factor.
func (it *Item) PF() prob.Factor { return it.pf }

// OneMinusP returns the cached factor (1 − P).
func (it *Item) OneMinusP() prob.Factor { return it.oneMin }

// Leaf returns the leaf node currently storing the item, or nil if the item
// is not in any tree.
func (it *Item) Leaf() *Node { return it.leaf }

// Freed reports whether the item sits in a pool freelist (use-after-free
// diagnostic).
func (it *Item) Freed() bool { return it.freed }

// Published reports the band, rank and skyline probability factor the item
// was last published with; ok is false for an item never published.
func (it *Item) Published() (band, rank int, psky prob.Factor, ok bool) {
	return int(it.pubBand), int(it.pubRank) - 1, it.pubPsky, it.pubRank > 0
}

// SetPublished records that the item was published at rank in band with
// skyline probability factor psky.
func (it *Item) SetPublished(band, rank int, psky prob.Factor) {
	it.pubBand, it.pubRank, it.pubPsky = int32(band), int32(rank+1), psky
}

// PublishedPoint returns an immutable heap clone of the item's point, made
// on the first call and shared by every later one. Published views hold it
// after the item leaves the window and its coordinate storage is recycled.
func (it *Item) PublishedPoint() geom.Point {
	if it.pubPoint == nil {
		it.pubPoint = it.Point.Clone()
	}
	return it.pubPoint
}

// clearPublished resets the publication bookkeeping to "never published".
func (it *Item) clearPublished() {
	it.pubBand, it.pubRank, it.pubPsky, it.pubPoint = 0, 0, prob.One(), nil
}

// Rect returns the degenerate bounding box of the item's point.
func (it *Item) Rect() geom.Rect { return geom.PointRect(it.Point) }

func (it *Item) String() string {
	return fmt.Sprintf("item{seq=%d p=%.3g pt=%v}", it.Seq, it.P, it.Point)
}
