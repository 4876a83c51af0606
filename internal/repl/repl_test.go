package repl

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"pskyline"
)

// testOptions is a small durable stream configuration; dir isolates each
// node's WAL + checkpoints.
func testOptions(dir string) pskyline.Options {
	return pskyline.Options{
		Dims:       2,
		Window:     64,
		Thresholds: []float64{0.3},
		Durability: pskyline.Durability{
			Dir:          dir,
			Fsync:        "never",
			SegmentBytes: 4 << 10,
		},
	}
}

// fastServer/fastFollower keep the test wall-clock short.
func fastServerOptions() ServerOptions {
	return ServerOptions{Heartbeat: 30 * time.Millisecond}
}

func fastFollowerOptions(addr string) FollowerOptions {
	return FollowerOptions{
		Addr:             addr,
		HeartbeatTimeout: 2 * time.Second,
		RetryBase:        10 * time.Millisecond,
		RetryMax:         200 * time.Millisecond,
		RetrySeed:        1,
	}
}

func pushN(t *testing.T, m *pskyline.Monitor, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e := pskyline.Element{
			Point: []float64{rng.Float64(), rng.Float64()},
			Prob:  0.05 + 0.95*rng.Float64(),
			TS:    int64(i),
		}
		if _, err := m.Push(e); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
}

// waitApplied polls until the follower's apply position reaches target.
func waitApplied(t *testing.T, f *Follower, target uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f.Monitor().NextSeq() >= target {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d (info %+v)",
				f.Monitor().NextSeq(), target, f.Info())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// snapshotBytes drains the monitor and serializes its full state; two
// monitors at the same stream position must produce identical bytes.
func snapshotBytes(t *testing.T, m *pskyline.Monitor) []byte {
	t.Helper()
	m.Drain()
	var b bytes.Buffer
	if err := m.Snapshot(&b); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return b.Bytes()
}

// TestFollowerMirrorsPrimary is the differential acceptance test: a
// follower replaying shipped segments and live tail must be byte-identical
// to the primary at the same sequence — including after a mid-stream
// disconnect and reconnect.
func TestFollowerMirrorsPrimary(t *testing.T) {
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := NewServer(primary, "127.0.0.1:0", fastServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(42))
	pushN(t, primary, rng, 200) // a backlog of sealed segments plus a live tail

	f, err := StartFollower(testOptions(t.TempDir()), fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitApplied(t, f, primary.NextSeq())
	if got, want := snapshotBytes(t, f.Monitor()), snapshotBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatalf("replica diverged after initial catch-up: %d vs %d snapshot bytes", len(got), len(want))
	}

	// Sever the session mid-stream while the primary keeps ingesting; the
	// reconnect handshake must resume from the replica's true position
	// without skipping or double-applying.
	pushN(t, primary, rng, 100)
	f.DropConnection()
	pushN(t, primary, rng, 100)
	waitApplied(t, f, primary.NextSeq())
	if got, want := snapshotBytes(t, f.Monitor()), snapshotBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatal("replica diverged after disconnect/reconnect")
	}

	// The primary's lag gauges must observe this follower converging.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Status()
		if len(st.Followers) == 1 && st.Followers[0].LagSeq == 0 && st.Followers[0].CaughtUpOnce {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag gauges never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var prom bytes.Buffer
	if err := srv.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"pskyline_repl_followers 1", "pskyline_repl_follower_lag_seq{", "pskyline_repl_follower_lag_seconds{"} {
		if !strings.Contains(prom.String(), series) {
			t.Fatalf("prometheus output missing %q:\n%s", series, prom.String())
		}
	}
}

// TestCheckpointCatchup starts the follower long after the primary's early
// log has been garbage-collected: the session must ship the newest
// checkpoint, install it on the replica, and stream the tail from there —
// ending byte-identical.
func TestCheckpointCatchup(t *testing.T) {
	opt := testOptions(t.TempDir())
	opt.Durability.SegmentBytes = 512
	opt.Durability.CheckpointEvery = 50
	primary, err := pskyline.NewMonitor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	rng := rand.New(rand.NewSource(7))
	pushN(t, primary, rng, 400) // checkpoints + GC leave only a recent suffix on disk

	srv, err := NewServer(primary, "127.0.0.1:0", fastServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fOpt := testOptions(t.TempDir())
	f, err := StartFollower(fOpt, fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitApplied(t, f, primary.NextSeq())
	if f.Info().CheckpointCatchups == 0 {
		t.Fatalf("expected a checkpoint catch-up, info %+v", f.Info())
	}
	if srv.Status().CheckpointSends == 0 {
		t.Fatalf("primary never recorded a checkpoint send: %+v", srv.Status())
	}
	if got, want := snapshotBytes(t, f.Monitor()), snapshotBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatal("replica diverged after checkpoint catch-up")
	}

	// Live tail still flows after the catch-up path.
	pushN(t, primary, rng, 60)
	waitApplied(t, f, primary.NextSeq())
	if got, want := snapshotBytes(t, f.Monitor()), snapshotBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatal("replica diverged on the post-checkpoint tail")
	}
}

// TestPromotion kills the primary and promotes the follower: the promoted
// node must be writable, carry a bumped durable epoch, and continuing the
// stream on it must match an uninterrupted oracle byte for byte.
func TestPromotion(t *testing.T) {
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(primary, "127.0.0.1:0", fastServerOptions())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	pushN(t, primary, rng, 150)

	fDir := t.TempDir()
	f, err := StartFollower(testOptions(fDir), fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, primary.NextSeq())

	// Primary dies.
	srv.Close()
	primary.Close()

	promoted, err := f.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if e, err := LoadEpoch(fDir); err != nil || e != 1 {
		t.Fatalf("epoch after promotion: %d, %v (want 1)", e, err)
	}
	if f.Epoch() != 1 {
		t.Fatalf("in-memory epoch %d, want 1", f.Epoch())
	}

	// The promoted node accepts writes; an uninterrupted oracle fed the
	// same stream must agree exactly.
	rng2 := rand.New(rand.NewSource(11))
	oracle, err := pskyline.NewMonitor(pskyline.Options{Dims: 2, Window: 64, Thresholds: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	pushN(t, oracle, rng2, 150)
	pushN(t, promoted, rng, 80)
	pushN(t, oracle, rng2, 80)
	if got, want := snapshotBytes(t, promoted), snapshotBytes(t, oracle); !bytes.Equal(got, want) {
		t.Fatal("promoted node diverged from the uninterrupted oracle")
	}

	// Close after promotion must not tear down the transferred monitor.
	if err := f.Close(); err != nil {
		t.Fatalf("close after promote: %v", err)
	}
	if _, err := promoted.Push(pskyline.Element{Point: []float64{0.5, 0.5}, Prob: 0.5}); err != nil {
		t.Fatalf("promoted monitor unusable after follower close: %v", err)
	}
	promoted.Close()

	// Promote is idempotent.
	if _, err := f.Promote(); err != nil {
		t.Fatalf("second promote: %v", err)
	}
}

// TestStalePrimaryRejected: a follower that has witnessed a newer epoch
// out-fences a deposed primary — the primary must refuse it and the
// follower must stop retrying.
func TestStalePrimaryRejected(t *testing.T) {
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := NewServer(primary, "127.0.0.1:0", fastServerOptions()) // epoch 0
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fDir := t.TempDir()
	if err := StoreEpoch(fDir, 5); err != nil {
		t.Fatal(err)
	}
	f, err := StartFollower(testOptions(fDir), fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !f.Info().Rejected {
		if time.Now().After(deadline) {
			t.Fatalf("follower never saw the rejection: %+v", f.Info())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if info := f.Info(); !strings.Contains(info.LastError, "stale primary") {
		t.Fatalf("unexpected rejection reason: %+v", info)
	}
	if st := srv.Status(); st.Rejects == 0 {
		t.Fatalf("primary did not count the rejection: %+v", st)
	}
}

// TestConfigMismatchRejected mirrors Open's checkpoint/Options check at
// the replication boundary: differently configured operators must not pair.
func TestConfigMismatchRejected(t *testing.T) {
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := NewServer(primary, "127.0.0.1:0", fastServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opt := testOptions(t.TempDir())
	opt.Window = 128 // primary has 64
	f, err := StartFollower(opt, fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !f.Info().Rejected {
		if time.Now().After(deadline) {
			t.Fatalf("config mismatch not rejected: %+v", f.Info())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if info := f.Info(); !strings.Contains(info.LastError, "configuration mismatch") {
		t.Fatalf("unexpected rejection reason: %+v", info)
	}
}

// TestFollowerLifecycleNoLeaks cycles the full follower lifecycle —
// connect, stream, forced disconnect, reconnect, close — and checks every
// goroutine is reclaimed.
func TestFollowerLifecycleNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(primary, "127.0.0.1:0", fastServerOptions())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(cycle)))
		pushN(t, primary, rng, 50)
		f, err := StartFollower(testOptions(t.TempDir()), fastFollowerOptions(srv.Addr().String()))
		if err != nil {
			t.Fatal(err)
		}
		waitApplied(t, f, primary.NextSeq())
		f.DropConnection()
		pushN(t, primary, rng, 50)
		waitApplied(t, f, primary.NextSeq())
		if err := f.Close(); err != nil {
			t.Fatalf("follower close: %v", err)
		}
		if err := f.Close(); err != nil { // idempotent
			t.Fatalf("second follower close: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("server close: %v", err)
		}
		if err := srv.Close(); err != nil { // idempotent
			t.Fatalf("second server close: %v", err)
		}
		if err := primary.Close(); err != nil {
			t.Fatalf("primary close: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d at start", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
