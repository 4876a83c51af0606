// Package prob implements the probability algebra used throughout the
// probabilistic skyline engine.
//
// The engine maintains, per element and per aggregate R-tree entry, running
// products of non-occurrence probabilities such as
//
//	Pnew(a) = Π_{a' ≺ a, a' newer} (1 − P(a'))
//
// over windows of up to millions of elements. Those products are repeatedly
// multiplied when dominators arrive and divided when dominators expire or
// leave the candidate set. Two numerical hazards follow:
//
//  1. Underflow: a product of 10^5 factors of 0.5 is far below the smallest
//     normal float64. Once a value degrades to a denormal or to 0, later
//     divisions cannot recover it and elements become permanently stuck
//     outside the skyline.
//  2. Exact zeros: an element with occurrence probability 1 contributes a
//     factor (1 − P) = 0. A plain float product collapses to 0 and the
//     subsequent division 0/0 on expiry is undefined.
//
// Factor solves both by keeping probabilities in log space together with an
// explicit count of zero factors. Multiplication adds log terms and zero
// counts; division subtracts them. The represented value is exactly 0 while
// the zero count is positive, and exp(logSum) otherwise.
package prob

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Factor is a non-negative probability-like quantity stored as a count of
// exact zero factors plus the sum of the logarithms of the non-zero factors.
// The zero value of Factor represents 1 (the empty product) and is ready to
// use.
type Factor struct {
	zeros  int32   // number of exact-zero factors in the product
	logSum float64 // Σ ln(f) over the non-zero factors
}

// One returns the multiplicative identity.
func One() Factor { return Factor{} }

// Zero returns a factor representing exactly 0 (one zero term).
func Zero() Factor { return Factor{zeros: 1} }

// FromFloat converts v ∈ [0, 1] (any non-negative v is accepted) into a
// Factor. v = 0 yields an exact zero factor.
func FromFloat(v float64) Factor {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("prob: factor from invalid value %v", v))
	}
	if v == 0 {
		return Zero()
	}
	return Factor{logSum: math.Log(v)}
}

// OneMinus returns the factor (1 − p) for an occurrence probability
// p ∈ [0, 1]. It uses log1p for precision when p is small and returns an
// exact zero when p = 1.
func OneMinus(p float64) Factor {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("prob: occurrence probability %v out of [0,1]", p))
	}
	if p == 1 {
		return Zero()
	}
	return Factor{logSum: math.Log1p(-p)}
}

// Times returns f · g.
func (f Factor) Times(g Factor) Factor {
	return Factor{zeros: f.zeros + g.zeros, logSum: f.logSum + g.logSum}
}

// Over returns f / g. Dividing by a factor with more zero terms than f holds
// panics: the engine only ever removes factors it previously multiplied in,
// so such a division indicates a bookkeeping bug.
func (f Factor) Over(g Factor) Factor {
	if g.zeros > f.zeros {
		panic("prob: division removes more zero factors than present")
	}
	return Factor{zeros: f.zeros - g.zeros, logSum: f.logSum - g.logSum}
}

// MulFloat returns f · v for v ∈ [0, 1].
func (f Factor) MulFloat(v float64) Factor { return f.Times(FromFloat(v)) }

// Float returns the represented value as a float64. The result may underflow
// to 0 for extremely small factors; comparisons should use Less/AtLeast,
// which work in log space.
func (f Factor) Float() float64 {
	if f.zeros > 0 {
		return 0
	}
	return math.Exp(f.logSum)
}

// Log returns ln(value), with −Inf for exact zeros.
func (f Factor) Log() float64 {
	if f.zeros > 0 {
		return math.Inf(-1)
	}
	return f.logSum
}

// IsZero reports whether the factor is exactly 0.
func (f Factor) IsZero() bool { return f.zeros > 0 }

// Zeros returns the number of exact-zero factors in the product.
func (f Factor) Zeros() int { return int(f.zeros) }

// IsOne reports whether the factor is exactly 1.
func (f Factor) IsOne() bool { return f.zeros == 0 && f.logSum == 0 }

// Less reports whether f < g.
//
// The order is lexicographic on (zero count descending, logSum ascending).
// For comparisons where either side has no zero factors — in particular any
// comparison against a positive threshold q — this coincides with numeric
// order. Between two exact zeros it is a strict refinement of numeric order
// ("more zero factors" sorts lower). The refinement is what makes min/max
// aggregates stable under the engine's lazy multiply/divide updates: scaling
// every element of a set by a common factor (possibly containing zeros, e.g.
// the departure of a dominator with P = 1) preserves this order, so a stored
// minimum remains the minimum after the scale is applied.
func (f Factor) Less(g Factor) bool {
	if f.zeros != g.zeros {
		return f.zeros > g.zeros
	}
	return f.logSum < g.logSum
}

// AtLeast reports whether f ≥ g.
func (f Factor) AtLeast(g Factor) bool { return !f.Less(g) }

// Cmp returns −1, 0 or +1 comparing f with g.
func (f Factor) Cmp(g Factor) int {
	switch {
	case f.Less(g):
		return -1
	case g.Less(f):
		return 1
	default:
		return 0
	}
}

// Min returns the smaller of f and g.
func Min(f, g Factor) Factor {
	if g.Less(f) {
		return g
	}
	return f
}

// Max returns the larger of f and g.
func Max(f, g Factor) Factor {
	if f.Less(g) {
		return g
	}
	return f
}

// ApproxEqual reports whether f and g agree within a relative tolerance tol
// in log space. Exact zeros only equal exact zeros.
func (f Factor) ApproxEqual(g Factor, tol float64) bool {
	if f.zeros > 0 || g.zeros > 0 {
		return f.zeros > 0 && g.zeros > 0
	}
	d := f.logSum - g.logSum
	if d < 0 {
		d = -d
	}
	scale := math.Max(1, math.Max(math.Abs(f.logSum), math.Abs(g.logSum)))
	return d <= tol*scale
}

// MarshalBinary encodes the factor losslessly (zero count plus log sum) for
// checkpointing. It implements encoding.BinaryMarshaler.
func (f Factor) MarshalBinary() ([]byte, error) {
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(f.zeros))
	binary.BigEndian.PutUint64(buf[4:12], math.Float64bits(f.logSum))
	return buf[:], nil
}

// UnmarshalBinary decodes a factor written by MarshalBinary. It implements
// encoding.BinaryUnmarshaler.
func (f *Factor) UnmarshalBinary(data []byte) error {
	if len(data) != 12 {
		return fmt.Errorf("prob: factor encoding has %d bytes, want 12", len(data))
	}
	f.zeros = int32(binary.BigEndian.Uint32(data[0:4]))
	f.logSum = math.Float64frombits(binary.BigEndian.Uint64(data[4:12]))
	if f.zeros < 0 || math.IsNaN(f.logSum) {
		return fmt.Errorf("prob: invalid factor encoding")
	}
	return nil
}

// String formats the factor as its float value, annotating exact zeros with
// the number of zero terms.
func (f Factor) String() string {
	if f.zeros > 0 {
		return fmt.Sprintf("0(z=%d)", f.zeros)
	}
	return fmt.Sprintf("%.6g", math.Exp(f.logSum))
}
