package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// proc is one pskyline serve-mode process. Its stderr is scanned for the
// addresses it bound and for checkpoint installations.
type proc struct {
	cmd  *exec.Cmd
	base string // http://host:port of the HTTP API
	repl string // replication listen address ("" unless replicating)

	mu      sync.Mutex
	tail    []string // last stderr lines, for error messages
	ckpts   int      // "checkpoint installed" lines seen
	changed chan struct{}
	done    chan struct{} // closed once the process has exited and been reaped
}

// live tracks every started process so the harness can kill all of them on
// any exit path.
var live struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

// startProc runs the server binary with args and waits until it serves
// HTTP (and, when wantRepl, until it replicates).
func startProc(bin string, args []string, wantRepl bool) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, changed: make(chan struct{}), done: make(chan struct{})}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.mu.Unlock()
	go p.scan(stderr)
	err = p.await(30*time.Second, func() bool { return p.base != "" && (!wantRepl || p.repl != "") })
	if err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// scan reads the process's stderr until it exits, then reaps it.
func (p *proc) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		if len(p.tail) == 20 {
			p.tail = p.tail[1:]
		}
		p.tail = append(p.tail, line)
		if i := strings.Index(line, "serving on http://"); i >= 0 && p.base == "" {
			p.base = strings.Fields(line[i+len("serving on "):])[0]
		}
		if i := strings.Index(line, "replicating on "); i >= 0 {
			p.repl = strings.Fields(line[i+len("replicating on "):])[0]
		}
		if strings.Contains(line, "checkpoint installed") {
			p.ckpts++
		}
		close(p.changed)
		p.changed = make(chan struct{})
		p.mu.Unlock()
	}
	p.cmd.Wait()
	close(p.done)
}

// await waits until cond (evaluated under p.mu) holds, the process exits,
// or the timeout passes.
func (p *proc) await(timeout time.Duration, cond func() bool) error {
	deadline := time.After(timeout)
	for {
		p.mu.Lock()
		ok, ch := cond(), p.changed
		p.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-p.done:
			return fmt.Errorf("server exited: %s", p.stderrTail())
		case <-deadline:
			return fmt.Errorf("server not ready after %v: %s", timeout, p.stderrTail())
		}
	}
}

// awaitCheckpoints waits until the process has logged n checkpoint
// installations.
func (p *proc) awaitCheckpoints(n int) error {
	return p.await(60*time.Second, func() bool { return p.ckpts >= n })
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// kill sends SIGKILL — a crash, not a shutdown — and waits for the exit.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	live.mu.Lock()
	delete(live.procs, p)
	live.mu.Unlock()
}

func killAll() {
	live.mu.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.mu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// vmRSS is the process's resident set size in MiB.
func (p *proc) vmRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", p.cmd.Process.Pid)
}

// machineTicks reads the aggregate CPU line of /proc/stat: total ticks and
// the ticks stolen by the hypervisor.
func machineTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// serverArgs is the primary's command line for w over the WAL in dir.
func serverArgs(w workload, sz sizes, dir string) []string {
	args := []string{
		"-dims", strconv.Itoa(w.dims), "-window", strconv.Itoa(sz.window),
		"-q", strconv.FormatFloat(threshold, 'g', -1, 64),
		"-wal", dir, "-http", "127.0.0.1:0", "-summary",
	}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.semisync {
		args = append(args, "-replicate-listen", "127.0.0.1:0", "-repl-semisync-k", "1")
	}
	return args
}

// replicaArgs is the replica's command line following primary.
func replicaArgs(w workload, sz sizes, dir, primary string) []string {
	return []string{
		"-dims", strconv.Itoa(w.dims), "-window", strconv.Itoa(sz.window),
		"-q", strconv.FormatFloat(threshold, 'g', -1, 64),
		"-wal", dir, "-http", "127.0.0.1:0", "-replica-of", primary,
	}
}

// health is the part of /healthz the harness reads.
type health struct {
	Status      string `json:"status"`
	Processed   uint64 `json:"processed"`
	WALState    string `json:"wal_state"`
	Replication *struct {
		SyncState    string `json:"sync_state"`
		Degrades     uint64 `json:"semisync_degrades_total"`
		WaitTimeouts uint64 `json:"semisync_wait_timeouts_total"`
	} `json:"replication"`
}

// healthy reports whether the durability layer is in its healthy state.
// A single monitor always reports wal_state; a sharded one only when it is
// not healthy.
func (h health) healthy() bool { return h.WALState == "" || h.WALState == "healthy" }

func (c *client) health() (health, error) {
	var h health
	body, code, err := c.get("/healthz")
	if err != nil {
		return h, err
	}
	if code != 200 {
		return h, fmt.Errorf("healthz: status %d", code)
	}
	err = json.Unmarshal(body, &h)
	return h, err
}

// awaitProcessed polls /healthz until the node serves with at least n
// processed elements; it returns when it first saw that.
func (c *client) awaitProcessed(n uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		h, err := c.health()
		if err == nil && h.Processed >= n {
			if h.Processed != n {
				return time.Time{}, fmt.Errorf("processed %d, acknowledged %d", h.Processed, n)
			}
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("processed %d of %d after %v (last error %v)", h.Processed, n, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// copyDir copies the regular files of the tree at src to dst — a crash
// image the harness can recover more than once.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
