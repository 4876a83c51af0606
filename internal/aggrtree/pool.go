package aggrtree

import (
	"fmt"
	"math"

	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

// Freelists for nodes and items. The sliding window makes ingestion a
// steady-state churn — every arrival eventually allocates an item and
// (amortized) tree nodes, and every expiry frees them — so the engine
// recycles both through explicit pools instead of leaving the churn to the
// GC. A NodePool is shared by all band trees of one engine (Config.NodePool):
// nodes migrate between trees when thresholds change, so their free nodes
// must too.
//
// Use-after-free is the classic pooling failure mode, and here it would
// surface as silently stale aggregates rather than a crash. Three defenses:
// every Node and Item carries a freed flag that attach operations and
// CheckInvariants reject unconditionally; Put panics on double-free; and
// poison mode (SetPoison) additionally clobbers a freed node's aggregates
// with impossible values (count −1, zero factors, NaN rect) so any read
// through a stale pointer corrupts results loudly enough for the validating
// tests to catch.

// poisonMode guards the destructive clobbering of freed nodes and items.
// It is a package-level toggle flipped by tests before building trees; the
// cheap freed-flag checks are always on.
var poisonMode bool

// SetPoison enables or disables poisoning of freed pooled nodes and items.
// Not safe to flip while trees are in use; intended for test setup.
func SetPoison(on bool) { poisonMode = on }

// PoisonEnabled reports whether freed nodes and items are poisoned.
func PoisonEnabled() bool { return poisonMode }

// NodePool is a freelist of tree nodes for one dimensionality.
type NodePool struct {
	dims int
	free []*Node
}

// NewNodePool returns an empty freelist for dims-dimensional nodes.
func NewNodePool(dims int) *NodePool {
	if dims < 1 {
		panic("aggrtree: NodePool dims must be >= 1")
	}
	return &NodePool{dims: dims}
}

// Dims returns the pool's dimensionality.
func (p *NodePool) Dims() int { return p.dims }

// FreeLen returns the number of nodes currently pooled.
func (p *NodePool) FreeLen() int { return len(p.free) }

// get returns a ready-to-use node at the given level, recycling a freed one
// when available. Recycled nodes come back with empty rect, unit factors and
// retained children/items capacity.
func (p *NodePool) get(dims, level int) *Node {
	if p == nil || len(p.free) == 0 {
		return newNode(dims, level)
	}
	n := p.free[len(p.free)-1]
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	n.freed = false
	n.parent = nil
	n.level = level
	n.rect.Reset()
	n.count = 0
	n.pnoc = prob.One()
	n.lazyNew, n.lazyOld = prob.One(), prob.One()
	n.pskyMin, n.pskyMax = prob.One(), prob.One()
	n.pnewMin, n.pnewMax = prob.One(), prob.One()
	return n
}

// put recycles a node the tree no longer references. Child and item
// references are cleared so the pool does not pin dead subtrees.
func (p *NodePool) put(n *Node) {
	if n.freed {
		panic("aggrtree: node double-free")
	}
	n.freed = true
	n.parent = nil
	for i := range n.children {
		n.children[i] = nil
	}
	n.children = n.children[:0]
	for i := range n.items {
		n.items[i] = nil
	}
	n.items = n.items[:0]
	if poisonMode {
		n.blockPoison()
		n.count = -1
		n.pnoc = prob.Zero()
		n.lazyNew, n.lazyOld = prob.Zero(), prob.Zero()
		n.pskyMin, n.pskyMax = prob.Zero(), prob.Zero()
		n.pnewMin, n.pnewMax = prob.Zero(), prob.Zero()
		for i := range n.rect.Min {
			n.rect.Min[i] = math.NaN()
			n.rect.Max[i] = math.NaN()
		}
	}
	if p == nil {
		return
	}
	p.free = append(p.free, n)
}

// poisonPoint is the published-point clone a poisoned freed item carries.
var poisonPoint = geom.Point{math.NaN()}

// ItemPool is a freelist of items.
type ItemPool struct {
	free []*Item
}

// NewItemPool returns an empty item freelist.
func NewItemPool() *ItemPool { return &ItemPool{} }

// FreeLen returns the number of items currently pooled.
func (p *ItemPool) FreeLen() int { return len(p.free) }

// Get returns an item initialized exactly as NewItem would, recycling a
// freed one when available.
func (p *ItemPool) Get(pt geom.Point, pr float64, seq uint64) *Item {
	if p == nil || len(p.free) == 0 {
		return NewItem(pt, pr, seq)
	}
	if pr <= 0 || pr > 1 {
		panic(fmt.Sprintf("aggrtree: occurrence probability %v out of (0,1]", pr))
	}
	it := p.free[len(p.free)-1]
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	it.freed = false
	it.Point = pt
	it.P = pr
	it.Seq = seq
	it.TS = 0
	it.Pnew, it.Pold = prob.One(), prob.One()
	it.Band = 0
	it.pf = prob.FromFloat(pr)
	it.oneMin = prob.OneMinus(pr)
	it.leaf = nil
	it.clearPublished()
	return it
}

// Put recycles an item that has been removed from its tree, returning the
// item's point slice so the caller can recycle the coordinates separately
// (the engine's arena does). The item must not be reachable from any tree.
func (p *ItemPool) Put(it *Item) geom.Point {
	if it.freed {
		panic("aggrtree: item double-free")
	}
	if it.leaf != nil {
		panic("aggrtree: freeing item still attached to a leaf")
	}
	pt := it.Point
	it.freed = true
	it.Point = nil
	it.clearPublished()
	if poisonMode {
		it.P = math.NaN()
		it.Seq = ^uint64(0)
		it.Pnew, it.Pold = prob.Zero(), prob.Zero()
		it.pf, it.oneMin = prob.Zero(), prob.Zero()
		it.Band = -1
		// A stale "published at rank 0 of band 0" record with a NaN point
		// clone: reused without a reset, it corrupts the next view.
		it.pubBand, it.pubRank, it.pubPsky = 0, 1, prob.Zero()
		it.pubPoint = poisonPoint
	}
	if p != nil {
		p.free = append(p.free, it)
	}
	return pt
}
