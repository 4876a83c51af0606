package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// runEnv is one benchmark run's fixed inputs.
type runEnv struct {
	bin     string // pskyline server binary
	workdir string // scratch directory for WAL directories, removed after the run
	w       workload
	sz      sizes
	seed    int64
	tr      *tracer // nil when untraced
}

// deployment is the server processes one workload runs against, with the
// writer's and the reader's connection to the primary.
type deployment struct {
	primary, replica *proc
	pc, rc           *client
}

func (d *deployment) close() {
	for _, c := range []*client{d.pc, d.rc} {
		if c != nil {
			c.close()
		}
	}
	for _, p := range []*proc{d.replica, d.primary} {
		if p != nil {
			p.kill()
		}
	}
}

// maxSteal is the share of the machine's CPU time the hypervisor may steal
// during a round before the round counts as disturbed; maxExtraRounds
// bounds the rounds run to replace disturbed ones.
const (
	maxSteal       = 0.05
	maxExtraRounds = 3
)

// round is one round's measurements.
type round struct {
	writes, reads *phase
	capacity      *phase  // nil when the main phase is closed loop
	ingestEPS     float64 // closed-loop elements/s
	recovery      float64 // seconds; 0 when the round timed none or it failed
	recoveryRuns  int     // recoveries attempted: 0 or 1
	recoveryFails int
	setup         float64 // seconds; 0 when the round timed none
	steal         float64 // share of CPU time the hypervisor stole during the round
	rssMB         float64 // median of the server processes' summed VmRSS during the main phase
}

func quietRounds(rs []round) int {
	n := 0
	for _, r := range rs {
		if r.steal <= maxSteal {
			n++
		}
	}
	return n
}

// e2eResult is what the serve-mode run measured.
type e2eResult struct {
	rounds []round // every round run, in order
	kept   []bool  // rounds the metrics are computed from

	// Metric inputs, from the kept rounds (setups also from set-up 0).
	setups     []float64
	writes     *phase
	reads      *phase
	ingestEPS  []float64
	recoveries []float64
	rssMB      []float64

	failed int // operations lost to durability or replication degradation
	checks checks

	// Trace-mode snapshots of the server at the end of the rounds.
	flight  []byte
	metrics []byte
}

// keep selects the n rounds the hypervisor disturbed least, in run order,
// and gathers the metric inputs from them. Every round still counts in
// attempted and failed.
func (r *e2eResult) keep(n int) {
	order := make([]int, len(r.rounds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.rounds[order[a]].steal < r.rounds[order[b]].steal })
	r.kept = make([]bool, len(r.rounds))
	for _, i := range order[:min(n, len(order))] {
		r.kept[i] = true
	}
	r.writes, r.reads = &phase{}, &phase{}
	for i, rd := range r.rounds {
		if !r.kept[i] {
			continue
		}
		r.writes.add(rd.writes)
		r.reads.add(rd.reads)
		r.ingestEPS = append(r.ingestEPS, rd.ingestEPS)
		r.rssMB = append(r.rssMB, rd.rssMB)
		if rd.recovery > 0 {
			r.recoveries = append(r.recoveries, rd.recovery)
		}
		if rd.setup > 0 {
			r.setups = append(r.setups, rd.setup)
		}
	}
}

func (r *e2eResult) attempted() int {
	n := 0
	for _, rd := range r.rounds {
		n += rd.writes.attempted() + rd.reads.attempted()
		if rd.capacity != nil {
			n += rd.capacity.attempted()
		}
		n += rd.recoveryRuns
	}
	return n
}

func (r *e2eResult) fails() int {
	n := r.failed
	for _, rd := range r.rounds {
		n += rd.writes.fails + rd.reads.fails + rd.recoveryFails
		if rd.capacity != nil {
			n += rd.capacity.fails
		}
	}
	return n
}

// setUp starts the workload's servers on fresh directories and pre-fills
// the window; it returns the stream positioned after the prefill.
func (env *runEnv) setUp(i int) (*deployment, *stream, float64, error) {
	t0 := time.Now()
	d := &deployment{}
	var err error
	dir := filepath.Join(env.workdir, fmt.Sprintf("setup%d", i))
	if d.primary, err = startProc(env.bin, serverArgs(env.w, env.sz, dir), env.w.semisync); err != nil {
		return nil, nil, 0, err
	}
	d.pc, d.rc = newClient(d.primary.base), newClient(d.primary.base)
	fail := func(err error) (*deployment, *stream, float64, error) {
		d.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if _, err := d.pc.awaitProcessed(0, 30*time.Second); err != nil {
		return fail(err)
	}
	var replica *client
	if env.w.semisync {
		dir := filepath.Join(env.workdir, fmt.Sprintf("setup%d-replica", i))
		if d.replica, err = startProc(env.bin, replicaArgs(env.w, env.sz, dir, d.primary.repl), false); err != nil {
			return fail(err)
		}
		replica = newClient(d.replica.base)
		defer replica.close()
	}
	s := newStream(env.w, env.seed, env.sz.window)
	for n := 0; n < env.sz.prefill(); n += prefillBatch {
		els := s.take(prefillBatch)
		if err := d.pc.push(ndjson(nil, els), len(els)); err != nil {
			return fail(err)
		}
	}
	if replica != nil {
		if _, err := replica.awaitProcessed(uint64(s.drawn), 30*time.Second); err != nil {
			return fail(fmt.Errorf("replica catch-up: %w", err))
		}
		if err := awaitSemisync(d.pc); err != nil {
			return fail(err)
		}
	}
	return d, s, time.Since(t0).Seconds(), nil
}

// rssEvery is the period of the resident-memory samples taken during each
// round's main phase. The peak (VmHWM) moves by up to a quarter between
// runs with the Go collector's timing; the median of many samples follows
// the steady state instead.
const rssEvery = 100 * time.Millisecond

// rssSampler samples the summed VmRSS of a deployment's server processes
// until finished.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
	err        error
}

func startRSS(ps ...*proc) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			sum := 0.0
			for _, p := range ps {
				if p == nil {
					continue
				}
				mb, err := p.vmRSS()
				if err != nil {
					s.err = err
					return
				}
				sum += mb
			}
			s.samples = append(s.samples, sum)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its median sample in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.samples), s.err
}

// awaitSemisync waits until the primary's replication has upgraded to
// semi-sync, so every measured push waits on the follower.
func awaitSemisync(c *client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := c.health()
		if err == nil && h.Replication != nil && h.Replication.SyncState == "semisync" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("primary never reached semi-sync (last error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// degradation counts the primary's durability and replication troubles:
// semi-sync waits that timed out or degraded, and whether the WAL is
// healthy.
func degradation(c *client) (troubles uint64, healthy bool, err error) {
	h, err := c.health()
	if err != nil {
		return 0, false, err
	}
	if h.Replication != nil {
		troubles = h.Replication.Degrades + h.Replication.WaitTimeouts
	}
	return troubles, h.healthy(), nil
}

// writer returns the prepare function of a phase that pushes the next
// batch elements of s per request over c.
func writer(c *client, s *stream, batch int) func(int) request {
	return func(int) request {
		els := s.take(batch)
		body := ndjson(nil, els)
		return request{elems: len(els), bytes: len(body), send: func() error { return c.push(body, len(els)) }}
	}
}

// runE2E runs the workload against the serve-mode binary: it builds the
// recovery drill's crash image, sets up the measured deployment, runs the
// rounds, and checks the outputs. Errors are failures of the harness or of
// a server to come up at all; wrong answers land in the result's checks.
//
// Machine speed on a shared virtual machine drifts over tens of seconds, so
// the recoveries and the extra set-ups are spread between the rounds
// rather than run in a block: every metric samples the same conditions.
func (env *runEnv) runE2E() (*e2eResult, error) {
	w, sz, tr := env.w, env.sz, env.tr
	res := &e2eResult{}
	img, err := env.crashImage()
	if err != nil {
		return nil, err
	}
	d, s, secs, err := env.setUp(0)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.setups = append(res.setups, secs)
	mainDur, capDur := w.roundDurs(sz)

	troubles0, _, err := degradation(d.pc)
	if err != nil {
		return nil, err
	}
	var recoverErr error
	for r := 0; r < sz.rounds+maxExtraRounds; r++ {
		if r >= sz.rounds && quietRounds(res.rounds) >= sz.rounds {
			break
		}
		total0, steal0 := machineTicks()
		rd := round{}
		rss := startRSS(d.primary, d.replica)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			read := request{send: d.rc.readSkyline}
			rd.reads = openLoop(w.readRate, mainDur, func(int) request { return read }, tr, "http.GET /skyline", 0)
		}()
		if w.rate > 0 {
			rd.writes = openLoop(w.rate, mainDur, writer(d.pc, s, w.batch), tr, "http.POST /push", 0)
		} else {
			rd.writes = closedLoop(mainDur, 0, writer(d.pc, s, w.batch), tr, "http.POST /push", 0)
		}
		wg.Wait()
		if rd.rssMB, err = rss.finish(); err != nil {
			return nil, err
		}
		ingest := rd.writes
		if w.rate > 0 {
			rd.capacity = closedLoop(capDur, 0, writer(d.pc, s, w.batch), tr, "http.POST /push capacity", 0)
			ingest = rd.capacity
		}
		rd.ingestEPS = float64(ingest.elems) / ingest.span.Seconds()
		if r < sz.recoveries {
			secs, err := env.recoverImage(img, r == 0)
			rd.recoveryRuns = 1
			if err != nil {
				rd.recoveryFails = 1
				if recoverErr == nil {
					recoverErr = err
				}
			}
			rd.recovery = secs
		}
		if r%2 == 1 && r/2+1 < sz.setups {
			extra, _, secs, err := env.setUp(r/2 + 1)
			if err != nil {
				return nil, err
			}
			extra.close()
			rd.setup = secs
		}
		if total1, steal1 := machineTicks(); total1 > total0 {
			rd.steal = float64(steal1-steal0) / float64(total1-total0)
		}
		res.rounds = append(res.rounds, rd)
	}
	res.keep(sz.rounds)
	res.checks.add("every recovery of the crash image serves every acknowledged element; the first matches the oracle", recoverErr)
	troubles1, healthy, err := degradation(d.pc)
	if err != nil {
		return nil, err
	}
	res.failed += int(troubles1 - troubles0)
	if !healthy {
		for _, rd := range res.rounds {
			res.failed += rd.writes.attempted()
			if rd.capacity != nil {
				res.failed += rd.capacity.attempted()
			}
		}
	}
	if tr != nil {
		if res.flight, _, err = d.pc.get("/debug/flight"); err != nil {
			return nil, err
		}
		if res.metrics, _, err = d.pc.get("/metrics"); err != nil {
			return nil, err
		}
	}
	win, first := s.window()
	primarySky, _, err := d.pc.get("/skyline")
	if err != nil {
		return nil, err
	}
	res.checks.add("final /skyline matches the naive oracle", newOracle(win, first).check(primarySky))
	if d.replica != nil {
		rc := newClient(d.replica.base)
		_, err := rc.awaitProcessed(uint64(s.drawn), 30*time.Second)
		var replicaSky []byte
		if err == nil {
			replicaSky, _, err = rc.get("/skyline")
		}
		if err == nil && !bytes.Equal(replicaSky, primarySky) {
			err = fmt.Errorf("replica /skyline (%d bytes) differs from the primary's (%d bytes)", len(replicaSky), len(primarySky))
		}
		rc.close()
		res.checks.add("replica /skyline byte-equal to the primary's", err)
	}
	return res, nil
}

// image is the recovery drill's input: a crashed primary's WAL directory
// and what it acknowledged before the crash.
type image struct {
	dir    string
	acked  uint64
	oracle oracle
}

// crashImage builds the crash image on a primary of its own. The primary
// is pre-filled like every set-up, killed with kill -9 and restarted once:
// the restart replays the log and installs a checkpoint. Then it logs a
// fixed tail of sz.tail elements and is killed again. The directory holds
// one checkpoint plus exactly sz.tail records, whatever the seed.
func (env *runEnv) crashImage() (*image, error) {
	w, sz := env.w, env.sz
	dir := filepath.Join(env.workdir, "image")
	s := newStream(w, env.seed, sz.window)
	fill := func(n int, awaitCheckpoint bool) error {
		p, err := startProc(env.bin, serverArgs(w, sz, dir), false)
		if err != nil {
			return err
		}
		defer p.kill()
		c := newClient(p.base)
		defer c.close()
		if _, err := c.awaitProcessed(uint64(s.drawn), 60*time.Second); err != nil {
			return fmt.Errorf("crash image: %w", err)
		}
		if awaitCheckpoint {
			if err := p.awaitCheckpoints(1); err != nil {
				return err
			}
		}
		for i := 0; i < n; i += prefillBatch {
			els := s.take(prefillBatch)
			if err := c.push(ndjson(nil, els), len(els)); err != nil {
				return fmt.Errorf("crash image: %w", err)
			}
		}
		return nil
	}
	if err := fill(sz.prefill(), false); err != nil {
		return nil, err
	}
	if err := fill(sz.tail, true); err != nil {
		return nil, err
	}
	win, first := s.window()
	return &image{dir: dir, acked: uint64(s.drawn), oracle: newOracle(win, first)}, nil
}

// recoverImage restarts a server on a fresh copy of the crash image and
// times it from process start until /healthz serves every acknowledged
// element. With check it also compares the recovered skyline with the
// oracle.
func (env *runEnv) recoverImage(img *image, check bool) (float64, error) {
	dir := img.dir + "-copy"
	defer os.RemoveAll(dir)
	if err := copyDir(img.dir, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	p, err := startProc(env.bin, serverArgs(env.w, env.sz, dir), false)
	if err != nil {
		return 0, err
	}
	defer p.kill()
	c := newClient(p.base)
	defer c.close()
	t1, err := c.awaitProcessed(img.acked, 60*time.Second)
	if err != nil {
		return 0, err
	}
	if check {
		sky, _, err := c.get("/skyline")
		if err == nil {
			err = img.oracle.check(sky)
		}
		if err != nil {
			return 0, err
		}
	}
	return t1.Sub(t0).Seconds(), nil
}

// flightWaitUs is the mean lock-wait phase of the flight recorder's recent
// write spans in a /debug/flight body, in microseconds.
func flightWaitUs(body []byte) (float64, error) {
	var fl struct {
		Recent []struct {
			WaitNs int64 `json:"wait_ns"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(body, &fl); err != nil {
		return 0, err
	}
	if len(fl.Recent) == 0 {
		return 0, fmt.Errorf("flight recorder is empty")
	}
	var sum int64
	for _, sp := range fl.Recent {
		sum += sp.WaitNs
	}
	return float64(sum) / float64(len(fl.Recent)) / 1e3, nil
}
