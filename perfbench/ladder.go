package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pskyline"
	"pskyline/internal/core"
	"pskyline/internal/repl"
	"pskyline/internal/streamgen"
)

// The in-process ladder: each rung runs the workload's request sequence
// (same seed, same prefill, same batch boundaries) through one more layer
// than the rung below it, and the harness times every call it makes into a
// rung. The rungs take turns in blocks of ladderBlock requests, in an order
// that rotates every block, so adjacent rungs see the same machine
// conditions, and a layer's self time is the median over requests of the
// paired difference between them. The serve-mode run is the top rung.
const (
	rungEngine   = "engine"        // core.Engine
	rungNoLat    = "monitor-nolat" // Monitor with latency tracking off
	rungMonitor  = "monitor"       // Monitor
	rungDurable  = "durable"       // + Durability (WAL, fsync=interval)
	rungSharded1 = "sharded-1"     // NewSharded, 1 shard, durable
	rungSharded2 = "sharded-2"     // NewSharded, 2 shards, durable
	rungSemisync = "semisync"      // durable + repl.NewServer semi-sync k=1 + in-process follower
)

// maxLadderReads bounds the skyline reads per rung: a merged read of two
// shards costs milliseconds. ladderBlock is how many consecutive requests a
// rung runs before the next rung takes over: enough to keep its caches
// warm, few enough that every rung sees the same machine conditions.
const (
	maxLadderReads = 100
	ladderBlock    = 50
)

// target is one rung's public surface as the harness calls it: prep turns
// a request's elements into the rung's input type outside the timed call
// and returns the call itself.
type target struct {
	prep func(els []streamgen.Element) func() error
	read func() []skyEntry
}

// skyEntry is one skyline member as every rung reports it.
type skyEntry struct {
	seq  uint64
	psky float64
}

// rungRun is one rung's timed replay.
type rungRun struct {
	writes []time.Duration // per request, in request order
	reads  []time.Duration
	final  []skyEntry
}

// rung is one ladder step: its target, how many requests it replays, its
// own copy of the element stream, and the hooks that snapshot its layer's
// counters around the timed requests.
type rung struct {
	name   string
	t      target
	n      int
	s      *stream
	run    *rungRun
	before func()       // after the prefill, before the first timed request
	after  func(i int)  // after each timed request, untimed
	finish func() error // after the replay: collect, check, release
	close  func()       // releases the rung on any path; called once
}

// ladder is everything the rungs measured.
type ladder struct {
	reqs   int
	runs   map[string]*rungRun
	checks checks

	// Engine rung: work counters and stage time over the measured requests,
	// end-state sizes.
	counters          core.Counters
	stageNs           map[string]uint64
	candidates, skyln int

	// Monitor rung.
	publishes uint64
	publish   []time.Duration // publish phase of the measured requests' flight spans

	// Durable rung.
	walBytes, walAppends, walCommits, walFsyncs uint64
	checkpoint                                  time.Duration
	open                                        time.Duration
	replayed                                    uint64

	skew float64 // sharded-2: max/mean elements per shard

	lagMax, waitTimeouts, degrades uint64 // semi-sync rung

	snapshots []snapshot
	attempted int
}

// snapshot is a layer's own counters captured at a phase boundary.
type snapshot struct {
	Rung  string `json:"rung"`
	Phase string `json:"phase"`
	Data  any    `json:"data"`
}

func (l *ladder) snap(rung, phase string, data any) {
	l.snapshots = append(l.snapshots, snapshot{Rung: rung, Phase: phase, Data: data})
}

func fromView(sky []pskyline.SkyPoint) []skyEntry {
	out := make([]skyEntry, len(sky))
	for i, p := range sky {
		out[i] = skyEntry{p.Seq, p.Psky}
	}
	return out
}

// operatorTarget drives anything with PushBatch and View.
func operatorTarget(op interface {
	PushBatch([]pskyline.Element) (uint64, error)
	View() *pskyline.View
}) target {
	return target{
		prep: func(els []streamgen.Element) func() error {
			es := elements(els)
			return func() error { _, err := op.PushBatch(es); return err }
		},
		read: func() []skyEntry { return fromView(op.View().Skyline()) },
	}
}

func (env *runEnv) options() pskyline.Options {
	return pskyline.Options{Dims: env.w.dims, Window: env.sz.window, Thresholds: []float64{threshold}}
}

func (env *runEnv) durable(opt pskyline.Options, name string) pskyline.Options {
	opt.Durability = pskyline.Durability{Dir: filepath.Join(env.workdir, "ladder-"+name), Fsync: "interval"}
	return opt
}

// runLadder builds every rung, pre-fills each, and replays the requests in
// lockstep.
func (env *runEnv) runLadder() (*ladder, error) {
	n := env.w.ladderReqs(env.sz)
	l := &ladder{reqs: n, runs: map[string]*rungRun{}, stageNs: map[string]uint64{}}
	var rungs []*rung
	defer func() {
		for _, r := range rungs {
			r.close()
		}
	}()
	for _, build := range []func(*ladder, int) (*rung, error){
		env.engineRung, env.noLatRung, env.monitorRung, env.durableRung,
		env.shardedRung(1), env.shardedRung(2), env.semisyncRung,
	} {
		r, err := build(l, n)
		if err != nil {
			return nil, err
		}
		r.close = once(r.close)
		r.s, r.run = newStream(env.w, env.seed, env.sz.window), &rungRun{}
		rungs = append(rungs, r)
		for i := 0; i < env.sz.prefill(); i += prefillBatch {
			if err := r.t.prep(r.s.take(prefillBatch))(); err != nil {
				return nil, fmt.Errorf("rung %s prefill: %w", r.name, err)
			}
		}
	}
	for _, r := range rungs {
		if r.before != nil {
			r.before()
		}
	}
	readEvery := max(env.w.readEvery, n/maxLadderReads)
	root := env.tr.begin("ladder", 0, -1)
	for b := 0; b < n; b += ladderBlock {
		for j := range rungs {
			r := rungs[(b/ladderBlock+j)%len(rungs)]
			for i := b; i < min(b+ladderBlock, r.n); i++ {
				call := r.t.prep(r.s.take(env.w.batch))
				id := env.tr.begin(r.name+".push", root, i)
				t0 := time.Now()
				err := call()
				d := time.Since(t0)
				env.tr.end(id)
				l.attempted++
				if err != nil {
					return nil, fmt.Errorf("rung %s request %d: %w", r.name, i, err)
				}
				r.run.writes = append(r.run.writes, d)
				if r.after != nil {
					r.after(i)
				}
				if (i+1)%readEvery == 0 {
					id := env.tr.begin(r.name+".skyline", root, i)
					t0 := time.Now()
					r.t.read()
					r.run.reads = append(r.run.reads, time.Since(t0))
					env.tr.end(id)
				}
			}
		}
	}
	env.tr.end(root)
	for _, r := range rungs {
		r.run.final = r.t.read()
		l.runs[r.name] = r.run
		if r.finish != nil {
			if err := r.finish(); err != nil {
				return nil, fmt.Errorf("rung %s: %w", r.name, err)
			}
		}
		r.close()
	}
	// Every rung that replayed the whole sequence must end on the engine
	// rung's answer.
	want := l.runs[rungEngine].final
	for _, r := range rungs {
		if r.n == n {
			l.checks.add("rung "+r.name+" final skyline equals the engine rung's", sameSkyline(r.run.final, want))
		}
	}
	return l, nil
}

// once wraps a release function so that calling it again does nothing.
func once(f func()) func() {
	var o sync.Once
	return func() { o.Do(f) }
}

func sameSkyline(got, want []skyEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d members, want %d", len(got), len(want))
	}
	ws := make(map[uint64]float64, len(want))
	for _, e := range want {
		ws[e.seq] = e.psky
	}
	for _, e := range got {
		p, ok := ws[e.seq]
		if !ok || math.Abs(p-e.psky) > 1e-9*(1+math.Abs(p)) {
			return fmt.Errorf("seq %d psky %v, want %v (present %v)", e.seq, e.psky, p, ok)
		}
	}
	return nil
}

func (env *runEnv) engineRung(l *ladder, n int) (*rung, error) {
	met := &core.Metrics{}
	eng, err := core.NewEngine(core.Options{Dims: env.w.dims, Window: env.sz.window, Thresholds: []float64{threshold}, Metrics: met})
	if err != nil {
		return nil, err
	}
	stageNs := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, h := range met.StageHistograms() {
			out[h.Name] = h.Hist.Snapshot().SumNs
		}
		return out
	}
	var (
		c0 core.Counters
		s0 map[string]uint64
	)
	return &rung{
		name: rungEngine, n: n,
		t: target{
			prep: func(els []streamgen.Element) func() error {
				be := make([]core.BatchElem, len(els))
				for i, e := range els {
					be[i] = core.BatchElem{Point: e.Point, P: e.P}
				}
				return func() error { _, err := eng.PushBatch(be); return err }
			},
			read: func() []skyEntry {
				sky := eng.Skyline()
				out := make([]skyEntry, len(sky))
				for i, r := range sky {
					out[i] = skyEntry{r.Seq, r.Psky}
				}
				return out
			},
		},
		before: func() {
			c0, s0 = eng.Counters(), stageNs()
			l.snap(rungEngine, "measure-start", c0)
		},
		finish: func() error {
			c1 := eng.Counters()
			l.snap(rungEngine, "measure-end", c1)
			l.counters = core.Counters{
				NodesVisited: c1.NodesVisited - c0.NodesVisited,
				ItemsTouched: c1.ItemsTouched - c0.ItemsTouched,
				LazyApplied:  c1.LazyApplied - c0.LazyApplied,
			}
			for name, ns := range stageNs() {
				l.stageNs[name] = ns - s0[name]
			}
			l.candidates, l.skyln = eng.CandidateSize(), eng.SkylineSize()
			return nil
		},
		close: func() {},
	}, nil
}

func (env *runEnv) noLatRung(l *ladder, n int) (*rung, error) {
	opt := env.options()
	opt.Latency.Disable = true
	m, err := pskyline.NewMonitor(opt)
	if err != nil {
		return nil, err
	}
	return &rung{name: rungNoLat, n: n, t: operatorTarget(m), close: func() { m.Close() }}, nil
}

func (env *runEnv) monitorRung(l *ladder, n int) (*rung, error) {
	m, err := pskyline.NewMonitor(env.options())
	if err != nil {
		return nil, err
	}
	var pub0 uint64
	return &rung{
		name: rungMonitor, n: n, t: operatorTarget(m),
		before: func() {
			met := m.Metrics()
			pub0 = met.ViewPublishes
			l.snap(rungMonitor, "measure-start", met)
		},
		finish: func() error {
			met := m.Metrics()
			l.snap(rungMonitor, "measure-end", met)
			l.publishes = met.ViewPublishes - pub0
			fi := m.Flight()
			l.snap(rungMonitor, "flight", map[string]any{"recorded": fi.Recorded, "slow_latched": fi.SlowLatched, "recent": len(fi.Recent)})
			for _, sp := range fi.Recent {
				if sp.Seq >= uint64(env.sz.prefill()) {
					l.publish = append(l.publish, time.Duration(sp.PublishNs))
				}
			}
			return nil
		},
		close: func() { m.Close() },
	}, nil
}

func (env *runEnv) durableRung(l *ladder, n int) (*rung, error) {
	opt := env.durable(env.options(), rungDurable)
	m, err := pskyline.NewMonitor(opt)
	if err != nil {
		return nil, err
	}
	var w0 pskyline.WALMetrics
	return &rung{
		name: rungDurable, n: n, t: operatorTarget(m),
		before: func() {
			met := m.Metrics()
			w0 = *met.WAL
			l.snap(rungDurable, "measure-start", met)
		},
		finish: func() error {
			met := m.Metrics()
			l.snap(rungDurable, "measure-end", met)
			w1 := met.WAL
			l.walBytes, l.walAppends = w1.AppendedBytes-w0.AppendedBytes, w1.Appends-w0.Appends
			l.walCommits, l.walFsyncs = w1.Commits-w0.Commits, w1.Fsyncs-w0.Fsyncs
			return env.crashAndOpen(l, m, opt)
		},
		close: func() { m.Close() },
	}, nil
}

// crashAndOpen copies the durable rung's directory as it stands — a crash
// image, since every commit has reached the OS — then times a checkpoint of
// the live monitor and a pskyline.Open of the copy.
func (env *runEnv) crashAndOpen(l *ladder, m *pskyline.Monitor, opt pskyline.Options) error {
	image := opt.Durability.Dir + "-image"
	if err := copyDir(opt.Durability.Dir, image); err != nil {
		return err
	}
	id := env.tr.begin(rungDurable+".Checkpoint", 0, -1)
	t0 := time.Now()
	err := m.Checkpoint()
	l.checkpoint = time.Since(t0)
	env.tr.end(id)
	if err != nil {
		return err
	}
	want := m.Stats().Processed
	ropt := opt
	ropt.Durability.Dir = image
	id = env.tr.begin(rungDurable+".Open", 0, -1)
	t0 = time.Now()
	r, err := pskyline.Open(ropt)
	l.open = time.Since(t0)
	env.tr.end(id)
	if err != nil {
		return fmt.Errorf("open crash image: %w", err)
	}
	defer r.Close()
	l.replayed = r.Recovery().Replayed
	var perr error
	if got := r.Stats().Processed; got != want {
		perr = fmt.Errorf("recovered %d elements, want %d", got, want)
	}
	l.checks.add("in-process Open of the crash image recovers every element", perr)
	return nil
}

func (env *runEnv) shardedRung(k int) func(*ladder, int) (*rung, error) {
	return func(l *ladder, n int) (*rung, error) {
		name := fmt.Sprintf("sharded-%d", k)
		sm, err := pskyline.NewSharded(pskyline.ShardedOptions{
			Options: env.durable(env.options(), name), Shards: k, Router: pskyline.GridRouter{},
		})
		if err != nil {
			return nil, err
		}
		r := &rung{name: name, n: n, t: operatorTarget(sm), close: func() { sm.Close() }}
		if k == 2 {
			r.finish = func() error {
				var sum, most float64
				per := map[string]uint64{}
				for i := 0; i < k; i++ {
					p := float64(sm.Shard(i).Stats().Processed)
					per[fmt.Sprint(i)] = uint64(p)
					sum += p
					most = math.Max(most, p)
				}
				l.skew = most / (sum / float64(k))
				l.snap(name, "measure-end", per)
				return nil
			}
		}
		return r, nil
	}
}

// semisyncRung runs a durable primary with a semi-sync (k=1) replication
// server and an in-process follower, and replays at most sz.replReqs
// requests: every push waits for the follower's ack.
func (env *runEnv) semisyncRung(l *ladder, n int) (*rung, error) {
	opt := env.durable(env.options(), rungSemisync)
	m, err := pskyline.NewMonitor(opt)
	if err != nil {
		return nil, err
	}
	epoch, err := repl.LoadEpoch(opt.Durability.Dir)
	if err != nil {
		m.Close()
		return nil, err
	}
	srv, err := repl.NewServer(m, "127.0.0.1:0", repl.ServerOptions{Epoch: epoch, SemiSyncK: 1})
	if err != nil {
		m.Close()
		return nil, err
	}
	f, err := repl.StartFollower(env.durable(env.options(), rungSemisync+"-follower"), repl.FollowerOptions{Addr: srv.Addr().String()})
	if err != nil {
		srv.Close()
		m.Close()
		return nil, err
	}
	var st0 repl.ServerStatus
	return &rung{
		name: rungSemisync, n: min(n, env.sz.replReqs), t: operatorTarget(m),
		before: func() {
			deadline := time.Now().Add(30 * time.Second)
			for srv.Status().SyncState != "semisync" && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			st0 = srv.Status()
			l.snap(rungSemisync, "measure-start", st0)
		},
		after: func(int) {
			for _, fs := range srv.Status().Followers {
				l.lagMax = max(l.lagMax, fs.LagSeq)
			}
		},
		finish: func() error {
			st1 := srv.Status()
			l.snap(rungSemisync, "measure-end", st1)
			var serr error
			if st0.SyncState != "semisync" {
				serr = errors.New("the primary never reached semi-sync")
			}
			l.checks.add("in-process semi-sync rung waited on its follower", serr)
			l.waitTimeouts, l.degrades = st1.WaitTimeouts-st0.WaitTimeouts, st1.Degrades-st0.Degrades
			deadline := time.Now().Add(30 * time.Second)
			for f.Monitor().NextSeq() != m.NextSeq() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			l.checks.add("in-process follower's skyline equals its primary's",
				sameSkyline(fromView(f.Monitor().View().Skyline()), l.runs[rungSemisync].final))
			return nil
		},
		close: func() {
			f.Close()
			srv.Close()
			m.Close()
		},
	}, nil
}

// perWrite is the median time of the first k calls in ds, in
// microseconds; perElem is a rung's per-request median divided by the
// request size. Medians keep a stray GC pause or fsync on one rung from
// showing up as another layer's self time.
func perWrite(ds []time.Duration, k int) float64 {
	k = min(k, len(ds))
	return quantile(ds[:k], 0.5) * 1e3
}

func (env *runEnv) perElem(rr *rungRun, k int) float64 {
	return perWrite(rr.writes, k) / float64(env.w.batch)
}

// paired is the median over the first k requests of upper's time minus
// lower's time for the same request, in microseconds per request: the self
// time of the layer upper adds, measured under the same machine conditions.
func paired(upper, lower *rungRun, k int) float64 {
	k = min(k, len(upper.writes), len(lower.writes))
	d := make([]time.Duration, k)
	for i := range d {
		d[i] = upper.writes[i] - lower.writes[i]
	}
	return quantile(d, 0.5) * 1e3
}

// layerMetrics derives the per-layer metrics from the traced serve-mode run
// and the ladder.
func layerMetrics(env *runEnv, e2e *e2eResult, l *ladder) map[string]metric {
	r := l.runs
	n := l.reqs
	elems := float64(n * env.w.batch)
	kr := len(r[rungSemisync].writes)
	http := &rungRun{writes: e2e.writes.svc, reads: e2e.reads.svc}
	// The rung directly below serve mode runs the server's configuration.
	below, kb := r[rungDurable], n
	switch {
	case env.w.semisync:
		below, kb = r[rungSemisync], kr
	case env.w.shards == 2:
		below = r[rungSharded2]
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 / elems }
	batch := float64(env.w.batch)
	publishUs := perWrite(l.publish, len(l.publish))
	monPush := perWrite(r[rungMonitor].writes, n)
	lockWait, err := flightWaitUs(e2e.flight)
	if err != nil {
		lockWait = math.NaN()
	}
	late := append(append([]time.Duration(nil), e2e.writes.late...), e2e.reads.late...)
	return map[string]metric{
		"http.push_self_us_per_elem": {env.perElem(http, kb) - env.perElem(below, kb), "us"},
		"http.read_self_us":          {perWrite(http.reads, len(http.reads)) - perWrite(below.reads, len(below.reads)), "us"},
		"http.req_bytes_per_elem":    {float64(e2e.writes.bytes) / float64(e2e.writes.attempted()*env.w.batch), "B"},

		"monitor.push_us":            {monPush, "us"},
		"monitor.publish_us":         {publishUs, "us"},
		"monitor.publish_share":      {publishUs / monPush, "ratio"},
		"monitor.self_us_per_elem":   {paired(r[rungNoLat], r[rungEngine], n) / batch, "us"},
		"monitor.publishes_per_elem": {float64(l.publishes) / elems, "count"},
		"monitor.lock_wait_us":       {lockWait, "us"},
		"monitor.skyline_read_us":    {perWrite(r[rungMonitor].reads, len(r[rungMonitor].reads)), "us"},
		"obs.tracking_us_per_write":  {paired(r[rungMonitor], r[rungNoLat], n), "us"},

		"core.push_us_per_elem":             {env.perElem(r[rungEngine], n), "us"},
		"core.stage_expire_us_per_elem":     {us(l.stageNs["expire"]), "us"},
		"core.stage_probe_us_per_elem":      {us(l.stageNs["probe"]), "us"},
		"core.stage_update_old_us_per_elem": {us(l.stageNs["update_old"]), "us"},
		"core.stage_place_us_per_elem":      {us(l.stageNs["place"]), "us"},
		"core.stage_apply_us_per_elem":      {us(l.stageNs["apply"]), "us"},
		"core.nodes_visited_per_elem":       {float64(l.counters.NodesVisited) / elems, "count"},
		"core.items_touched_per_elem":       {float64(l.counters.ItemsTouched) / elems, "count"},
		"core.lazy_applied_per_elem":        {float64(l.counters.LazyApplied) / elems, "count"},
		"core.candidates":                   {float64(l.candidates), "count"},
		"core.skyline":                      {float64(l.skyln), "count"},

		"wal.append_us_per_elem":   {paired(r[rungDurable], r[rungMonitor], n) / batch, "us"},
		"wal.bytes_per_elem":       {float64(l.walBytes) / float64(l.walAppends), "B"},
		"wal.elems_per_commit":     {float64(l.walAppends) / float64(l.walCommits), "count"},
		"wal.fsyncs":               {float64(l.walFsyncs), "count"},
		"wal.checkpoint_ms":        {float64(l.checkpoint) / 1e6, "ms"},
		"wal.open_s":               {l.open.Seconds(), "s"},
		"wal.replayed_records":     {float64(l.replayed), "count"},
		"shard.push_us_per_elem":   {paired(r[rungSharded2], r[rungDurable], n) / batch, "us"},
		"shard.router_us_per_elem": {paired(r[rungSharded1], r[rungDurable], n) / batch, "us"},
		"shard.skew":               {l.skew, "ratio"},

		"repl.commit_wait_us":       {paired(r[rungSemisync], r[rungDurable], kr), "us"},
		"repl.follower_lag_seq_max": {float64(l.lagMax), "count"},
		"repl.wait_timeouts":        {float64(l.waitTimeouts), "count"},
		"repl.degrades":             {float64(l.degrades), "count"},

		"gen.late_p50_ms":   {quantile(late, 0.5), "ms"},
		"gen.late_p99_ms":   {quantile(late, 0.99), "ms"},
		"trace.push_p50_ms": {windowedQuantile(e2e.writes.lat, 0.5, env.sz.rounds), "ms"},
	}
}

// writeTrace writes the run's spans and snapshots as one JSON file under
// dir, named after the workload and seed.
func writeTrace(dir string, env *runEnv, e2e *e2eResult, l *ladder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := map[string]any{
		"workload":       env.w.name,
		"seed":           env.seed,
		"spans":          env.tr.spans,
		"snapshots":      l.snapshots,
		"server_flight":  json.RawMessage(orNull(e2e.flight)),
		"server_metrics": string(e2e.metrics),
	}
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", env.w.name, env.seed))
	return os.WriteFile(path, b, 0o644)
}

func orNull(b []byte) []byte {
	if len(b) == 0 {
		return []byte("null")
	}
	return b
}
