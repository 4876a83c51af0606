package main

import (
	"encoding/json"
	"fmt"
	"math"

	"pskyline/internal/naive"
	"pskyline/internal/streamgen"
)

// skylineBody is the /skyline response.
type skylineBody struct {
	Processed uint64 `json:"processed"`
	Skyline   []struct {
		Seq  uint64  `json:"seq"`
		Psky float64 `json:"psky"`
	} `json:"skyline"`
}

// oracle is the exact q-skyline of one window: every element's
// unrestricted skyline probability by global sequence number.
type oracle struct {
	processed uint64
	psky      map[uint64]float64
}

// newOracle evaluates Equation (1) over the window naively, O(W²).
func newOracle(win []streamgen.Element, first uint64) oracle {
	x := naive.NewExact(len(win))
	for _, e := range win {
		x.Push(e.Point, e.P)
	}
	o := oracle{processed: first + uint64(len(win)), psky: make(map[uint64]float64, len(win))}
	for _, p := range x.All() {
		o.psky[first+p.Seq] = p.Psky.Float()
	}
	return o
}

// check applies the repository's oracle rule to a /skyline body: the
// position matches, every reported element has the oracle's Psky within
// 1e-9, and membership is exact except for oracle values within 1e-9 of q.
func (o oracle) check(body []byte) error {
	var sb skylineBody
	if err := json.Unmarshal(body, &sb); err != nil {
		return fmt.Errorf("decode /skyline: %w", err)
	}
	if sb.Processed != o.processed {
		return fmt.Errorf("processed %d, oracle window ends at %d", sb.Processed, o.processed)
	}
	const tol = 1e-9
	feq := func(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }
	got := make(map[uint64]bool, len(sb.Skyline))
	for _, p := range sb.Skyline {
		want, ok := o.psky[p.Seq]
		if !ok {
			return fmt.Errorf("seq %d is not in the window", p.Seq)
		}
		if want < threshold-tol {
			return fmt.Errorf("seq %d reported with oracle psky %v < q", p.Seq, want)
		}
		if !feq(p.Psky, want) {
			return fmt.Errorf("seq %d: psky %v, oracle %v", p.Seq, p.Psky, want)
		}
		got[p.Seq] = true
	}
	for seq, psky := range o.psky {
		if psky >= threshold+tol && !got[seq] {
			return fmt.Errorf("missed seq %d with oracle psky %v", seq, psky)
		}
	}
	return nil
}

// checks accumulates named output checks; any failure makes the run
// incorrect.
type checks struct {
	names  []string
	failed []string
}

func (c *checks) add(name string, err error) {
	c.names = append(c.names, name)
	if err != nil {
		c.failed = append(c.failed, fmt.Sprintf("%s: %v", name, err))
	}
}

func (c *checks) ok() bool { return len(c.failed) == 0 }
