package repl

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pskyline"
	"pskyline/internal/netfault"
	"pskyline/internal/obs"
	"pskyline/internal/wal"
)

// ServerOptions tunes the primary side of replication. The zero value
// selects sane defaults.
type ServerOptions struct {
	// Epoch is the primary's fencing epoch (see epoch.go). Followers
	// carrying a newer epoch are rejected as evidence that this primary
	// has been deposed.
	Epoch uint64
	// Heartbeat is the idle keep-alive interval (default 500ms): a
	// heartbeat goes out once a connection has sent nothing for this long.
	// Each heartbeat carries the committed watermark and a wall-clock stamp
	// the follower echoes, which is what keeps the seconds-lag gauge live
	// on an idle stream. Records never wait for it — they are streamed as
	// soon as the WAL commits them.
	Heartbeat time.Duration
	// BatchBytes bounds the raw record bytes per records frame
	// (default 256 KiB).
	BatchBytes int
	// AckTimeout is how long a connection may go without an ack before it
	// is declared dead and dropped (default 10s). Followers ack every
	// records frame and every heartbeat, so a healthy connection acks at
	// least once per Heartbeat.
	AckTimeout time.Duration
	// WriteTimeout bounds a single frame write (default 10s).
	WriteTimeout time.Duration

	// SemiSyncK enables semi-sync replication: pushes on the primary block
	// until this many followers have acked the pushed sequence (see
	// semisync.go). Zero (the default) keeps replication fully async.
	SemiSyncK int
	// AckWait bounds a semi-sync quorum wait (default 1s). A wait that
	// exceeds it degrades the stream to async instead of failing the push.
	AckWait time.Duration
	// CatchupLag is how close (in records) K followers must be to the
	// committed watermark before a degraded/async stream upgrades back to
	// semi-sync (default 64).
	CatchupLag uint64
	// EscalateAfter is how long the stream may stay degraded before it
	// escalates to async (default 10×AckWait). <0 disables escalation.
	EscalateAfter time.Duration
	// Fault, when set, wraps every accepted follower connection so reads
	// and writes pass through the injector's seeded schedule. Testing and
	// chaos drills only.
	Fault *netfault.Injector
}

func (o *ServerOptions) normalize() {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 256 << 10
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.SemiSyncK < 0 {
		o.SemiSyncK = 0
	}
	if o.AckWait <= 0 {
		o.AckWait = time.Second
	}
	if o.CatchupLag == 0 {
		o.CatchupLag = 64
	}
	if o.EscalateAfter == 0 {
		o.EscalateAfter = 10 * o.AckWait
	}
}

// FollowerStatus is one connected follower's progress as observed by the
// primary. Both lag figures are computed entirely from the primary's own
// clock and watermark against the follower's acks, so follower clock skew
// cannot pollute them.
type FollowerStatus struct {
	Addr       string  `json:"addr"`
	Applied    uint64  `json:"applied_seq"`
	LagSeq     uint64  `json:"lag_seq"`
	LagSeconds float64 `json:"lag_seconds"`
	// CaughtUpOnce reports whether this follower has ever acked the
	// then-current committed watermark.
	CaughtUpOnce bool `json:"caught_up_once"`
}

// ServerStatus summarizes the primary's replication state.
type ServerStatus struct {
	Epoch           uint64           `json:"epoch"`
	Committed       uint64           `json:"committed_seq"`
	Followers       []FollowerStatus `json:"followers"`
	CheckpointSends uint64           `json:"checkpoint_sends_total"`
	Rejects         uint64           `json:"rejects_total"`

	// Semi-sync health (semisync.go). SyncState is "async" when SemiSyncK
	// is zero; otherwise it walks the semisync → degraded → async machine.
	SemiSyncK    int    `json:"semisync_k"`
	SyncState    string `json:"sync_state"`
	SyncReason   string `json:"sync_reason,omitempty"`
	QuorumAcked  uint64 `json:"quorum_acked_seq"`
	Degrades     uint64 `json:"semisync_degrades_total"`
	Upgrades     uint64 `json:"semisync_upgrades_total"`
	Waits        uint64 `json:"semisync_waits_total"`
	WaitTimeouts uint64 `json:"semisync_wait_timeouts_total"`
	Shortfalls   uint64 `json:"semisync_shortfalls_total"`
}

// Server is the primary side: it accepts follower connections, performs
// the config/epoch handshake, optionally ships a checkpoint for catch-up,
// then streams committed WAL records and heartbeats while tracking
// per-follower lag from acks. Each connection's tail-follower blocks on the
// WAL's commit broadcast (wal.CommitNotify) when drained, so a committed
// record leaves for the follower at once; the only timer is the idle
// heartbeat.
type Server struct {
	mon *pskyline.Monitor
	log *wal.WAL
	opt ServerOptions

	ln net.Listener
	wg sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	conns     map[net.Conn]*connState
	ckptSends uint64
	rejects   uint64

	// Semi-sync machinery (semisync.go), guarded by mu except syncA.
	syncA           atomic.Int32 // SyncState, lock-free mirror
	syncReason      string       // why the state last changed
	quorumSeq       uint64       // K-th highest acked sequence (monotone)
	degradedAt      time.Time    // when the state last entered SyncDegraded
	waiters         []*syncWaiter
	appliedScratch  []uint64
	semDegrades     uint64
	semUpgrades     uint64
	semWaits        uint64
	semWaitTimeouts uint64
	semShortfalls   uint64
	// commitWaitHist times every blocking quorum wait (recorded under mu),
	// exported through metrics as pskyline_repl_commit_wait_seconds.
	commitWaitHist obs.Histogram
	metrics        *obs.Registry
}

type connState struct {
	addr         string
	applied      uint64
	echoNanos    int64 // primary-clock stamp echoed by the newest ack
	ackWall      time.Time
	connectedAt  time.Time
	caughtUpOnce bool
	ready        bool // handshake complete; counts toward the quorum
	dead         bool // ack reader exited; invisible to Status and quorum
}

// NewServer starts replicating mon's WAL on addr. The monitor must be
// durable — the WAL is the replication log.
func NewServer(mon *pskyline.Monitor, addr string, opt ServerOptions) (*Server, error) {
	log := mon.ReplicationLog()
	if log == nil {
		return nil, errors.New("repl: monitor has no WAL; replication requires durability")
	}
	opt.normalize()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen: %w", err)
	}
	s := &Server{mon: mon, log: log, opt: opt, ln: ln, conns: make(map[net.Conn]*connState)}
	s.metrics = obs.NewRegistry()
	s.metrics.RegisterHistogram("pskyline_repl_commit_wait_seconds",
		"Time a semi-sync push spent blocked on the follower quorum's ack.", &s.commitWaitHist)
	// A semi-sync primary starts async — there is no quorum until K
	// followers connect and catch up — and upgrades on ack progress.
	s.syncA.Store(int32(SyncAsync))
	s.syncReason = "startup"
	if opt.SemiSyncK > 0 {
		mon.SetCommitWaiter(s.commitWait)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr is the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Epoch is the primary's fencing epoch.
func (s *Server) Epoch() uint64 { return s.opt.Epoch }

// Close stops accepting, drops every follower connection and waits for all
// connection goroutines to exit. Idempotent.
func (s *Server) Close() error {
	// Uninstall the commit waiter first so pushes racing Close skip the
	// quorum wait entirely rather than erroring.
	if s.opt.SemiSyncK > 0 {
		s.mon.SetCommitWaiter(nil)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Waits blocked at this instant resolve to the sticky shutdown error:
	// their pushes are applied and durable, but the quorum never acked.
	s.releaseWaitersLocked(ErrServerClosed)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.opt.Fault != nil {
			c = s.opt.Fault.WrapConn(c)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		st := &connState{addr: c.RemoteAddr().String(), connectedAt: time.Now()}
		s.conns[c] = st
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c, st)
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	if st := s.conns[c]; st != nil {
		st.dead = true
	}
	delete(s.conns, c)
	s.lossCheckLocked()
	s.mu.Unlock()
	c.Close()
}

// lossCheckLocked reacts to losing a follower: with fewer than K live
// followers there is no quorum to wait for, so a blocking or degraded
// stream drops straight to async (waiters would otherwise ride out the
// full AckWait for a quorum that cannot form). Callers hold s.mu.
func (s *Server) lossCheckLocked() {
	if s.opt.SemiSyncK <= 0 || s.closed {
		return
	}
	if s.liveFollowersLocked() < s.opt.SemiSyncK && s.syncState() != SyncAsync {
		s.semShortfalls++
		s.setSyncLocked(SyncAsync, "follower shortfall")
	}
}

// reject sends a reject frame (best effort) and records the rejection.
func (s *Server) reject(c net.Conn, reason string) {
	s.mu.Lock()
	s.rejects++
	s.mu.Unlock()
	buf, err := appendJSONFrame(nil, frameReject, s.opt.Epoch, rejectMsg{Reason: reason})
	if err == nil {
		c.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
		c.Write(buf)
	}
}

func (s *Server) serveConn(c net.Conn, st *connState) {
	defer s.wg.Done()
	defer s.dropConn(c)

	br := bufio.NewReaderSize(c, 64<<10)
	c.SetReadDeadline(time.Now().Add(s.opt.AckTimeout))
	typ, _, body, _, err := readFrame(br, nil)
	if err != nil || typ != frameHello {
		return
	}
	var hello helloMsg
	if decodeJSON(body, &hello) != nil {
		return
	}
	if hello.Proto != protoVersion {
		s.reject(c, fmt.Sprintf("protocol version %d, this primary speaks %d", hello.Proto, protoVersion))
		return
	}
	if hello.Epoch > s.opt.Epoch {
		// The follower has seen a newer epoch: somebody was promoted past
		// us. This primary is stale and must not feed anyone.
		s.reject(c, fmt.Sprintf("stale primary: follower epoch %d > primary epoch %d", hello.Epoch, s.opt.Epoch))
		return
	}
	cfg := s.mon.ConfigSummary()
	if got := (pskyline.StreamConfigSummary{Dims: hello.Dims, Window: hello.Window, Period: hello.Period, Thresholds: hello.Thresholds}); !cfg.Equal(got) {
		s.reject(c, fmt.Sprintf("configuration mismatch: primary %+v, follower %+v", cfg, got))
		return
	}
	committed := s.log.CommittedSeq()
	if hello.From > committed {
		s.reject(c, fmt.Sprintf("follower ahead of primary: from %d > committed %d", hello.From, committed))
		return
	}

	start, viaCkpt, err := s.planStart(hello.From)
	if err != nil {
		s.reject(c, err.Error())
		return
	}

	welcome := welcomeMsg{Epoch: s.opt.Epoch, Committed: committed}
	var ckptSeq, ckptSize = uint64(0), int64(0)
	var ckptBlob io.ReadCloser
	if viaCkpt {
		seq, size, r, ok, cerr := s.mon.NewestCheckpoint()
		if cerr != nil || !ok {
			s.reject(c, "checkpoint unavailable")
			return
		}
		ckptSeq, ckptSize, ckptBlob = seq, size, r
		start = seq
		welcome.Checkpoint, welcome.CkptSeq, welcome.CkptSize = true, seq, size
		defer ckptBlob.Close()
	}
	buf, err := appendJSONFrame(nil, frameWelcome, s.opt.Epoch, welcome)
	if err != nil {
		return
	}
	c.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
	if _, err := c.Write(buf); err != nil {
		return
	}
	if viaCkpt {
		if !s.sendCheckpoint(c, ckptBlob, ckptSeq, ckptSize) {
			return
		}
		s.mu.Lock()
		s.ckptSends++
		s.mu.Unlock()
	}

	// The handshake is done: the follower now counts toward the semi-sync
	// quorum.
	s.mu.Lock()
	st.ready = true
	s.mu.Unlock()

	// Reader side: acks drive the lag gauges and the semi-sync quorum
	// watermark. Closing stop tears down the writer below; a reader that
	// exits also marks the entry dead so Status and the quorum stop seeing
	// it immediately, even while the writer drains its last frame.
	stop := make(chan struct{})
	go func() {
		defer func() {
			s.mu.Lock()
			st.dead = true
			s.lossCheckLocked()
			s.mu.Unlock()
			close(stop)
		}()
		var scratch []byte
		for {
			c.SetReadDeadline(time.Now().Add(s.opt.AckTimeout))
			typ, _, body, sc, err := readFrame(br, scratch)
			if err != nil || typ != frameAck {
				return
			}
			scratch = sc
			var ack ackMsg
			if decodeJSON(body, &ack) != nil {
				return
			}
			s.mu.Lock()
			st.applied = ack.Applied
			st.echoNanos = ack.EchoNanos
			st.ackWall = time.Now()
			if ack.Applied >= s.log.CommittedSeq() {
				st.caughtUpOnce = true
			}
			s.ackProgressLocked()
			s.mu.Unlock()
		}
	}()

	s.streamTail(c, start, stop)
	c.Close() // unblocks the ack reader
	<-stop
}

// planStart decides how to bring a follower at `from` onto the stream:
// directly from the retained log, or via the newest checkpoint when the log
// before `from` has been garbage-collected. The GC invariant (segments are
// retained from min(checkpointSeq, horizon)) guarantees every record at or
// after the newest checkpoint's position is still on disk, so checkpoint +
// tail is always a complete recipe.
func (s *Server) planStart(from uint64) (start uint64, viaCkpt bool, err error) {
	oldest, ok := s.log.OldestSeq()
	if ok && from >= oldest {
		return from, false, nil
	}
	if !ok && from >= s.log.CommittedSeq() {
		// Empty log and a caught-up follower: nothing to replay yet.
		return from, false, nil
	}
	// The log before `from` is gone; ship a checkpoint. Force one if the
	// primary has never checkpointed (possible only with automatic
	// checkpoints disabled).
	seq, _, r, ok, cerr := s.mon.NewestCheckpoint()
	if cerr != nil {
		return 0, false, fmt.Errorf("checkpoint unavailable: %w", cerr)
	}
	if ok {
		r.Close()
		return seq, true, nil
	}
	if cerr := s.mon.Checkpoint(); cerr != nil {
		return 0, false, fmt.Errorf("checkpoint unavailable: %w", cerr)
	}
	return 0, true, nil
}

// sendCheckpoint ships the blob in CRC-framed chunks bracketed by
// ckptBegin/ckptEnd; the end frame carries a whole-blob checksum.
func (s *Server) sendCheckpoint(c net.Conn, r io.Reader, seq uint64, size int64) bool {
	buf, err := appendJSONFrame(nil, frameCkptBegin, s.opt.Epoch, ckptBeginMsg{Seq: seq, Size: size})
	if err != nil {
		return false
	}
	c.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
	if _, err := c.Write(buf); err != nil {
		return false
	}
	chunk := make([]byte, 256<<10)
	var sum uint32
	for {
		n, rerr := r.Read(chunk)
		if n > 0 {
			sum = crc32.Update(sum, frameCRCTable, chunk[:n])
			buf = appendFrame(buf[:0], frameCkptChunk, s.opt.Epoch, chunk[:n])
			c.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
			if _, err := c.Write(buf); err != nil {
				return false
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return false
		}
	}
	buf, err = appendJSONFrame(buf[:0], frameCkptEnd, s.opt.Epoch, ckptEndMsg{CRC: sum})
	if err != nil {
		return false
	}
	c.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
	_, err = c.Write(buf)
	return err == nil
}

// streamTail follows the committed log from start, batching raw record
// bytes into records frames and heartbeating when idle. A drained reader
// blocks on the WAL's commit broadcast, so a record ships as soon as it is
// committed. Returns when the connection dies, the log position is
// garbage-collected out from under the reader (the follower reconnects and
// catches up via checkpoint), or stop closes.
func (s *Server) streamTail(c net.Conn, start uint64, stop <-chan struct{}) {
	tr := s.log.NewTailReader(start)
	defer tr.Close()
	hb := time.NewTimer(s.opt.Heartbeat)
	defer hb.Stop()
	var recs, frame []byte
	for {
		select {
		case <-stop:
			return
		default:
		}
		// Take the notification before reading: a commit that lands after
		// Next has looked closes this channel, so the wait below cannot
		// sleep through it.
		committed := s.log.CommitNotify()
		out, _, _, err := tr.Next(recs[:0], s.opt.BatchBytes)
		if err != nil {
			return // ErrGone, ErrClosed, or corruption: drop and let the follower re-handshake
		}
		recs = out[:0]
		var now time.Time
		if len(out) > 0 {
			now = time.Now()
			frame = appendRecordsFrame(frame[:0], s.opt.Epoch, now.UnixNano(), s.log.CommittedSeq(), out)
		} else {
			select {
			case <-stop:
				return
			case <-committed:
				continue
			case <-hb.C:
			}
			now = time.Now()
			frame, err = appendJSONFrame(frame[:0], frameHeartbeat, s.opt.Epoch,
				heartbeatMsg{Committed: s.log.CommittedSeq(), WallNanos: now.UnixNano()})
			if err != nil {
				return
			}
		}
		c.SetWriteDeadline(now.Add(s.opt.WriteTimeout))
		if _, err := c.Write(frame); err != nil {
			return
		}
		// Any frame restarts the idle clock: the next heartbeat is due one
		// Heartbeat after the last send.
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(s.opt.Heartbeat)
	}
}

// Status reports the primary's replication state, followers sorted by
// address. Only live followers appear: entries whose ack reader has exited
// are dead already, and a connection that has gone silent past AckTimeout
// (a reconnecting follower's blackholed predecessor, for instance) is
// reaped here — closed and hidden — rather than left inflating the lag
// gauges until its write path notices.
func (s *Server) Status() ServerStatus {
	committed := s.log.CommittedSeq()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pokeLocked(now)
	st := ServerStatus{Epoch: s.opt.Epoch, Committed: committed,
		CheckpointSends: s.ckptSends, Rejects: s.rejects,
		SemiSyncK: s.opt.SemiSyncK, SyncState: s.syncState().String(), SyncReason: s.syncReason,
		QuorumAcked: s.quorumSeq, Degrades: s.semDegrades, Upgrades: s.semUpgrades,
		Waits: s.semWaits, WaitTimeouts: s.semWaitTimeouts, Shortfalls: s.semShortfalls}
	for c, cs := range s.conns {
		if cs.dead || !cs.ready {
			// Not a follower: the ack reader has exited, or the handshake
			// has not completed (a wedged welcome write must not surface
			// as a lagging follower).
			continue
		}
		last := cs.ackWall
		if last.IsZero() {
			last = cs.connectedAt
		}
		if now.Sub(last) > s.opt.AckTimeout {
			// Ghost: no ack (or handshake progress) within AckTimeout.
			// Its own reader is about to hit the same deadline; closing
			// the conn hurries that along and the dead mark keeps it out
			// of every future report.
			cs.dead = true
			c.Close()
			s.lossCheckLocked()
			continue
		}
		f := FollowerStatus{Addr: cs.addr, Applied: cs.applied, CaughtUpOnce: cs.caughtUpOnce}
		if committed > cs.applied {
			f.LagSeq = committed - cs.applied
		}
		if cs.echoNanos > 0 {
			f.LagSeconds = float64(now.UnixNano()-cs.echoNanos) / 1e9
		}
		st.Followers = append(st.Followers, f)
	}
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].Addr < st.Followers[j].Addr })
	return st
}

// WritePrometheus appends the replication series in Prometheus text
// exposition format: connected-follower count, checkpoint sends, handshake
// rejects, per-follower applied/lag gauges labeled by remote address, the
// semi-sync state and counters, and the histogram of blocking semi-sync
// commit waits.
func (s *Server) WritePrometheus(w io.Writer) error {
	st := s.Status()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# TYPE pskyline_repl_followers gauge\npskyline_repl_followers %d\n", len(st.Followers))
	p("# TYPE pskyline_repl_epoch gauge\npskyline_repl_epoch %d\n", st.Epoch)
	p("# TYPE pskyline_repl_checkpoint_sends_total counter\npskyline_repl_checkpoint_sends_total %d\n", st.CheckpointSends)
	p("# TYPE pskyline_repl_rejects_total counter\npskyline_repl_rejects_total %d\n", st.Rejects)
	p("# TYPE pskyline_repl_follower_applied_seq gauge\n")
	for _, f := range st.Followers {
		p("pskyline_repl_follower_applied_seq{follower=%q} %d\n", f.Addr, f.Applied)
	}
	p("# TYPE pskyline_repl_follower_lag_seq gauge\n")
	for _, f := range st.Followers {
		p("pskyline_repl_follower_lag_seq{follower=%q} %d\n", f.Addr, f.LagSeq)
	}
	p("# TYPE pskyline_repl_follower_lag_seconds gauge\n")
	for _, f := range st.Followers {
		p("pskyline_repl_follower_lag_seconds{follower=%q} %g\n", f.Addr, f.LagSeconds)
	}
	stateVal := SyncAsync
	for v, name := range syncStateNames {
		if name == st.SyncState {
			stateVal = SyncState(v)
		}
	}
	p("# TYPE pskyline_repl_sync_state gauge\npskyline_repl_sync_state %d\n", stateVal)
	p("# TYPE pskyline_repl_semisync_k gauge\npskyline_repl_semisync_k %d\n", st.SemiSyncK)
	p("# TYPE pskyline_repl_quorum_acked_seq gauge\npskyline_repl_quorum_acked_seq %d\n", st.QuorumAcked)
	p("# TYPE pskyline_repl_semisync_degrades_total counter\npskyline_repl_semisync_degrades_total %d\n", st.Degrades)
	p("# TYPE pskyline_repl_semisync_upgrades_total counter\npskyline_repl_semisync_upgrades_total %d\n", st.Upgrades)
	p("# TYPE pskyline_repl_semisync_waits_total counter\npskyline_repl_semisync_waits_total %d\n", st.Waits)
	p("# TYPE pskyline_repl_semisync_wait_timeouts_total counter\npskyline_repl_semisync_wait_timeouts_total %d\n", st.WaitTimeouts)
	p("# TYPE pskyline_repl_semisync_shortfalls_total counter\npskyline_repl_semisync_shortfalls_total %d\n", st.Shortfalls)
	if err != nil {
		return err
	}
	return s.metrics.WritePrometheus(w)
}
