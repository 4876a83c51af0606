package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

// failLatency is the latency a failed request is counted with: it misses
// every latency limit the benchmark could set.
const failLatency = 10 * time.Second

// client is one keep-alive HTTP connection to a server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: failLatency,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// push POSTs one NDJSON request of n elements; anything but a 200 that
// accepted all n is an error.
func (c *client) push(body []byte, n int) error {
	resp, err := c.hc.Post(c.base+"/push", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("push: status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(out, &ack); err != nil || ack.Accepted != n {
		return fmt.Errorf("push: accepted %d of %d (%v)", ack.Accepted, n, err)
	}
	return nil
}

// readSkyline issues one GET /skyline; anything but a 200 is an error.
func (c *client) readSkyline() error {
	_, code, err := c.get("/skyline")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("skyline: status %d", code)
	}
	return err
}

// spinWindow is how long before a due time the pacer stops sleeping and
// spins. A Go timer on an idle process wakes up to a millisecond late;
// nanosleep is accurate to tens of microseconds, and the final spin
// removes the rest.
const spinWindow = 150 * time.Microsecond

// sleepUntil returns at t, late by microseconds at most when a CPU is free.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}

// phase collects one load phase's outcomes.
type phase struct {
	lat   []time.Duration // due (open loop) or issue (closed loop) → response; failures count failLatency
	svc   []time.Duration // send → response, successful requests only
	late  []time.Duration // pacer lateness of sends due on an idle connection
	elems int             // elements acknowledged
	bytes int             // request body bytes sent
	fails int
	span  time.Duration // first send → last response
	errs  []string      // first few failure messages
}

func (p *phase) attempted() int { return len(p.lat) }

// add appends another phase's outcomes.
func (p *phase) add(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.svc = append(p.svc, o.svc...)
	p.late = append(p.late, o.late...)
	p.elems += o.elems
	p.bytes += o.bytes
	p.fails += o.fails
	p.span += o.span
	p.errs = append(p.errs, o.errs...)
}

func (p *phase) record(due, start, end time.Time, err error) {
	if err != nil {
		p.fails++
		p.lat = append(p.lat, failLatency)
		if len(p.errs) < 3 {
			p.errs = append(p.errs, err.Error())
		}
		return
	}
	p.lat = append(p.lat, end.Sub(due))
	p.svc = append(p.svc, end.Sub(start))
}

// request is one prepared request: its element count, body size and the
// call that sends it.
type request struct {
	elems, bytes int
	send         func() error
}

// openLoop sends request i at start + i/rate for dur, on one connection,
// regardless of how long earlier requests took: a request that is due
// while the previous one is outstanding goes out as soon as it returns,
// and its latency still runs from its due time.
func openLoop(rate float64, dur time.Duration, prepare func(i int) request, tr *tracer, name string, parent int) *phase {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	p := &phase{}
	start := time.Now().Add(time.Millisecond)
	prevEnd := start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		req := prepare(i)
		idle := !prevEnd.After(due)
		sleepUntil(due)
		t0 := time.Now()
		if idle {
			p.late = append(p.late, t0.Sub(due))
		}
		id := tr.begin(name, parent, i)
		err := req.send()
		t1 := time.Now()
		tr.end(id)
		p.record(due, t0, t1, err)
		if err == nil {
			p.elems += req.elems
		}
		p.bytes += req.bytes
		prevEnd = t1
	}
	p.span = prevEnd.Sub(start)
	return p
}

// closedLoop sends the next request as soon as the previous one returns,
// for dur or until maxReqs requests (0 = no limit).
func closedLoop(dur time.Duration, maxReqs int, prepare func(i int) request, tr *tracer, name string, parent int) *phase {
	p := &phase{}
	start := time.Now()
	stop := start.Add(dur)
	var t1 time.Time
	for i := 0; (maxReqs == 0 || i < maxReqs) && time.Now().Before(stop); i++ {
		req := prepare(i)
		t0 := time.Now()
		id := tr.begin(name, parent, i)
		err := req.send()
		t1 = time.Now()
		tr.end(id)
		p.record(t0, t0, t1, err)
		if err == nil {
			p.elems += req.elems
		}
		p.bytes += req.bytes
	}
	p.span = t1.Sub(start)
	return p
}

// quantile is the nearest-rank q-quantile of ds in milliseconds; it sorts a
// copy.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e6
}

// windowedQuantile is the median, over consecutive windows of ds, of each
// window's q-quantile, in milliseconds. ds is in time order; it is cut into
// as many equal windows as possible, at most maxWindows, such that each
// window keeps at least ten samples beyond its quantile. A burst of machine
// noise then moves one window's quantile instead of the whole run's.
func windowedQuantile(ds []time.Duration, q float64, maxWindows int) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	k := max(1, min(maxWindows, len(ds)/need))
	per := make([]float64, k)
	for i := range per {
		per[i] = quantile(ds[i*len(ds)/k:(i+1)*len(ds)/k], q)
	}
	return median(per)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tracer records spans around the harness's calls into each layer. Spans
// stay in memory until the run writes them out; a nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one call: name, start and end in nanoseconds since the tracer
// started, the enclosing span's id (0 = none) and the request index shared
// by the same request on every rung.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}
