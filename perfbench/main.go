// Command perfbench is the repository's benchmark. It drives the pskyline
// serve-mode binary over HTTP with one of three workloads (sync-stream,
// bulk-recover, semisync-repl), checks the answers against the naive
// oracle, and prints every end-to-end metric by name and unit. With
// -trace 1 it instead reports per-layer metrics: the same serve-mode run,
// with spans around every HTTP call, followed by an in-process ladder of
// rungs (engine, Monitor, +WAL, sharded, semi-sync) that replays the
// workload's request sequence. README.md maps each metric to its layer.
//
// run.sh builds the binaries and runs this from the repository root:
//
//	bash perfbench/run.sh --workload sync-stream --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// maxLateShare bounds the pacer: a run whose median send lateness on an
// idle connection exceeds this share of the median latency it paces is
// invalid, because the generator's own slack would show up as latency.
const maxLateShare = 0.10

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the run: machine, processes, inputs.
type record struct {
	Workload         string  `json:"workload"`
	Seed             int64   `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Trace            bool    `json:"trace"`
	Nproc            int     `json:"nproc"`
	GeneratorProcs   int     `json:"generator_gomaxprocs"`
	ServerProcs      int     `json:"server_gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	Window           int     `json:"window"`
	Threshold        float64 `json:"q"`
	Dims             int     `json:"dims"`
	Distribution     string  `json:"dist"`
	Shards           int     `json:"shards"`
	Semisync         bool    `json:"semisync"`
	Batch            int     `json:"batch"`
	WriteRate        float64 `json:"write_rate"`
	ReadRate         float64 `json:"read_rate"`
	GeneratorConns   int     `json:"generator_connections"`
	ReplicaProcesses int     `json:"replica_processes"`
}

// serverProcs is the GOMAXPROCS every server process runs with.
func serverProcs() int { return runtime.NumCPU() }

// generatorProcs is the harness's own GOMAXPROCS: at most two, so the load
// generator never competes with the servers for more than it needs.
func generatorProcs() int { return min(2, runtime.NumCPU()) }

func main() {
	var (
		name    = flag.String("workload", "", "workload: sync-stream, bulk-recover or semisync-repl")
		seed    = flag.Int64("seed", 1, "seed of the generated element stream")
		seconds = flag.Int("seconds", 20, "measured time of one run, in seconds")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run and the in-process ladder")
		server  = flag.String("server", "", "pskyline server binary")
		workdir = flag.String("workdir", ".bench_build", "directory for WAL directories and trace files")
		commit  = flag.String("commit", "unknown", "commit of the code under test, for the run record")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *server == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {sync-stream|bulk-recover|semisync-repl}, -server, -seconds >= 1, -trace 0|1 (%v)\n", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(generatorProcs())
	env := &runEnv{
		bin: *server, w: w, seed: *seed,
		sz:      fullSizes(time.Duration(*seconds) * time.Second),
		workdir: filepath.Join(*workdir, "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
	}
	if *trace == 1 {
		// The traced run reports no end-to-end figures: half the measured
		// time and one set-up and recovery keep its samples and output
		// checks, and leave time for the ladder.
		env.tr = newTracer()
		env.sz.seconds /= 2
		env.sz.setups, env.sz.recoveries = 1, 1
	}
	res, err := run(env, *commit, filepath.Join(*workdir, "traces"), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, prints its record, checks and metrics in
// readable form to out, and returns the result line. Every server process
// it started has exited when it returns.
func run(env *runEnv, commit, traceDir string, out io.Writer) (*result, error) {
	defer killAll()
	if err := os.MkdirAll(env.workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.workdir)
	rec := record{
		Workload: env.w.name, Seed: env.seed, Seconds: env.sz.seconds.Seconds(), Trace: env.tr != nil,
		Nproc: runtime.NumCPU(), GeneratorProcs: runtime.GOMAXPROCS(0), ServerProcs: serverProcs(),
		GoVersion: runtime.Version(), Commit: commit,
		Window: env.sz.window, Threshold: threshold, Dims: env.w.dims, Distribution: env.w.dist.String(),
		Shards: env.w.shards, Semisync: env.w.semisync, Batch: env.w.batch,
		WriteRate: env.w.rate, ReadRate: env.w.readRate, GeneratorConns: 2,
	}
	if env.w.semisync {
		rec.ReplicaProcesses = 1
	}
	b, _ := json.Marshal(rec)
	fmt.Fprintf(out, "run: %s\n", b)

	total0, steal0 := machineTicks()
	e2e, err := env.runE2E()
	if err != nil {
		return nil, err
	}
	if total1, steal1 := machineTicks(); total1 > total0 {
		fmt.Fprintf(out, "machine: %.1f%% of CPU time stolen by the hypervisor during the serve-mode run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	res := &result{
		Correct:   true,
		Attempted: e2e.attempted(),
		Failed:    e2e.fails(),
		Metrics:   map[string]metric{},
	}
	late := append(append([]time.Duration(nil), e2e.writes.late...), e2e.reads.late...)
	lateP50 := quantile(late, 0.5)
	paced := quantile(e2e.reads.lat, 0.5)
	if env.w.rate > 0 {
		paced = math.Min(paced, quantile(e2e.writes.lat, 0.5))
	}
	if lateP50 > maxLateShare*paced {
		e2e.checks.add("pacer lateness", fmt.Errorf("median send lateness %.4f ms exceeds %.0f%% of the median latency %.4f ms it paces; the run is invalid", lateP50, 100*maxLateShare, paced))
	} else {
		e2e.checks.add("pacer lateness", nil)
	}

	if env.tr == nil {
		res.Metrics = map[string]metric{
			"push_p50_ms":   {windowedQuantile(e2e.writes.lat, 0.5, env.sz.rounds), "ms"},
			"read_p50_ms":   {windowedQuantile(e2e.reads.lat, 0.5, env.sz.rounds), "ms"},
			"ingest_eps":    {median(e2e.ingestEPS), "1/s"},
			"recover_s":     {median(e2e.recoveries), "s"},
			"setup_s":       {median(e2e.setups), "s"},
			"server_rss_mb": {median(e2e.rssMB), "MiB"},
		}
		fmt.Fprintf(out, "samples: writes=%d reads=%d rounds=%d recoveries=%d setups=%d\n",
			len(e2e.writes.lat), len(e2e.reads.lat), len(e2e.ingestEPS), len(e2e.recoveries), len(e2e.setups))
		fmt.Fprintf(out, "per round ingest_eps %.5g; setups %.4g s; recoveries %.4g s; server RSS %.4g MiB\n",
			e2e.ingestEPS, e2e.setups, e2e.recoveries, e2e.rssMB)
		fmt.Fprintf(out, "tails, with no bound: push p90 %.4f ms, p99 %.4f ms; read p90 %.4f ms, p99 %.4f ms; pacer lateness p50 %.4f ms, p99 %.4f ms\n",
			windowedQuantile(e2e.writes.lat, 0.9, env.sz.rounds), quantile(e2e.writes.lat, 0.99),
			windowedQuantile(e2e.reads.lat, 0.9, env.sz.rounds), quantile(e2e.reads.lat, 0.99), lateP50, quantile(late, 0.99))
	} else {
		lad, err := env.runLadder()
		if err != nil {
			return nil, err
		}
		res.Metrics = layerMetrics(env, e2e, lad)
		if err := writeTrace(traceDir, env, e2e, lad); err != nil {
			return nil, err
		}
		e2e.checks.names = append(e2e.checks.names, lad.checks.names...)
		e2e.checks.failed = append(e2e.checks.failed, lad.checks.failed...)
		res.Attempted += lad.attempted
	}
	for i, rd := range e2e.rounds {
		fmt.Fprintf(out, "round %d: steal %.1f%%, kept %v\n", i+1, 100*rd.steal, e2e.kept[i])
		for _, p := range []*phase{rd.writes, rd.reads, rd.capacity} {
			if p != nil {
				for _, e := range p.errs {
					fmt.Fprintf(out, "error: %s\n", e)
				}
			}
		}
	}
	for _, name := range e2e.checks.names {
		fmt.Fprintf(out, "check: %s\n", name)
	}
	for _, f := range e2e.checks.failed {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
	res.Correct = e2e.checks.ok()
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", n)
		}
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	return res, nil
}
