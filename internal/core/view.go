package core

import (
	"slices"
)

// Band generations and view extraction.
//
// The engine counts, per threshold band, every *logical* mutation of the
// band's contents: element insertions, removals and band moves, and any
// probability change (exact or via a lazy entry multiplier) of an element
// held by the band. Representation-only changes — lazy push-downs, R-tree
// splits and condenses — do not advance a generation, because they leave
// every element's resolved probabilities untouched.
//
// A caller that extracts band contents with BandResults can therefore cache
// the result and reuse it for as long as BandGen reports the same value:
// an unchanged generation guarantees the cached slice is byte-for-byte what
// a fresh extraction would produce. This is the contract the pskyline
// package's copy-on-write read views are built on. A band whose generation
// did change is rebuilt there from its previous version with WalkBandPsky
// (only elements whose skyline probability factor changed are re-sorted);
// BandResults stays the from-scratch oracle those rebuilds are tested
// against.
//
// By Theorem 4 (candidate-set sufficiency), the extracted bands together
// hold exactly S_{N,q_k}, which suffices to answer the continuous skyline,
// any ad-hoc query with q' ≥ q_k, and probabilistic top-k with minQ ≥ q_k —
// so a snapshot of the bands is a complete read-only replica of the
// operator's answerable state.

// touch advances band i's generation.
func (e *Engine) touch(i int) { e.bandGen[i]++ }

// touchAll advances every band's generation (threshold changes renumber
// bands, invalidating any cached extraction wholesale).
func (e *Engine) touchAll() {
	for i := range e.bandGen {
		e.bandGen[i]++
	}
}

// BandGen returns the generation counter of threshold band i. The counter
// advances on every logical mutation of the band's contents; equal
// generations guarantee identical BandResults output.
func (e *Engine) BandGen(i int) uint64 { return e.bandGen[i] }

// NextSeq returns the sequence number the next pushed element will receive.
func (e *Engine) NextSeq() uint64 { return e.next }

// BandResults extracts threshold band i: every element currently in the
// band with its exact (lazy-resolved) probabilities, sorted by descending
// skyline probability with ties broken by ascending sequence number — the
// same order Query reports. The extraction is read-only; it never modifies
// aggregate information.
func (e *Engine) BandResults(i int) []Result {
	tr := e.trees[i]
	out := make([]Result, 0, tr.Size())
	e.WalkBand(i, func(r Result) bool {
		out = append(out, r)
		return true
	})
	slices.SortFunc(out, compareResults)
	return out
}
