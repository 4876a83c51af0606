package pskyline

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// maxIngestBatch bounds how many queued elements the background goroutine
// ingests under one lock hold (and thus per published view): large enough to
// amortize view publication, small enough to keep view freshness and writer
// lock holds bounded.
const maxIngestBatch = 256

// OverloadPolicy selects what a full async queue does to producers.
type OverloadPolicy int

const (
	// Block (the default) applies backpressure: Push blocks until the
	// consumer makes room. Nothing is ever dropped; producers slow to the
	// ingestion rate.
	Block OverloadPolicy = iota
	// DropNewest sheds the arriving element: Push returns ErrOverloaded
	// immediately and the element is never queued. Latency stays bounded
	// and the already-accepted prefix of the stream is preserved intact.
	DropNewest
	// DropOldest evicts the oldest queued (not yet ingested) element to
	// make room for the arriving one. Push always succeeds; under sustained
	// overload the queue holds the most recent elements — the natural choice
	// for a sliding-window operator, where old elements expire anyway.
	// Because evicted elements already held reserved sequence numbers, the
	// numbers returned by Push/PushBatch are provisional under this policy:
	// a later eviction shifts what the engine actually assigns.
	DropOldest
)

func (p OverloadPolicy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	default:
		return "block"
	}
}

// ParseOverloadPolicy parses an overload policy name: "block", "drop-newest"
// or "drop-oldest" ("" selects the default, block).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "block":
		return Block, nil
	case "drop-newest", "dropnewest":
		return DropNewest, nil
	case "drop-oldest", "dropoldest":
		return DropOldest, nil
	}
	return 0, fmt.Errorf("pskyline: unknown overload policy %q (want block, drop-newest or drop-oldest)", s)
}

// ErrOverloaded is returned by Push and PushBatch under the DropNewest
// policy when the async queue is full. The element (or batch suffix) was not
// ingested; the caller may retry, shed, or back off. Test with errors.Is.
var ErrOverloaded = errors.New("pskyline: async queue full")

// asyncQueue is the bounded single-consumer ingestion queue behind
// Options.AsyncQueue. The channel carries write ops, and WHO assigns their
// sequence numbers is the queue's central contract:
//
//   - Standalone monitors: producers reserve numbers from q.next under
//     enqMu — the reservation order is the channel order, and the single
//     consumer applies in channel order, so the reserved numbers are exactly
//     the ones the engine will assign (exactly under Block and DropNewest;
//     provisionally under DropOldest, whose evictions consume reserved
//     numbers: apply numbers the ops again from the engine position).
//   - Shard members: the ShardedMonitor assigns global numbers under its own
//     mutex and enqueues pre-numbered ops in order; the queue must never
//     invent numbers of its own — the old queue-owns-numbering assumption
//     breaks the moment two shards share one stream. The consumer follows
//     each drained batch with a watermark tick so expiry keeps up with the
//     rest of the stream. Under DropOldest an eviction leaves a sequence gap
//     (the element never existed) instead of renumbering.
//
// The channel's capacity is the overload bound; pol decides what happens
// when it is reached. Drop bookkeeping runs under enqMu, which satisfies
// the metrics' single-writer contract and keeps it off the consumer's
// ingestion path.
type asyncQueue struct {
	m     *Monitor
	ch    chan writeOp
	pol   OverloadPolicy
	flush chan chan struct{} // Drain requests, acknowledged when the queue is empty
	done  chan struct{}      // closed when the consumer goroutine exits

	enqMu  sync.Mutex
	next   uint64 // next sequence number to reserve (standalone monitors only)
	closed bool
}

func newAsyncQueue(m *Monitor, capacity int, pol OverloadPolicy) *asyncQueue {
	q := &asyncQueue{
		m:     m,
		ch:    make(chan writeOp, capacity),
		pol:   pol,
		flush: make(chan chan struct{}),
		done:  make(chan struct{}),
		next:  m.eng.NextSeq(),
	}
	go q.run()
	return q
}

// put queues one operation according to the overload policy, reporting
// whether it was accepted. Callers hold enqMu.
func (q *asyncQueue) put(op writeOp) bool {
	switch q.pol {
	case DropNewest:
		select {
		case q.ch <- op:
			return true
		default:
			q.m.met.qDrops.Inc()
			return false
		}
	case DropOldest:
		for {
			select {
			case q.ch <- op:
				return true
			default:
			}
			// Full: evict the oldest queued element and retry. The receive
			// is non-blocking because the consumer may drain the queue
			// between our two selects — then the send simply succeeds.
			select {
			case <-q.ch:
				q.m.met.qDrops.Inc()
			default:
			}
		}
	default:
		q.ch <- op
		return true
	}
}

// enqueue queues validated ops in order according to the overload policy:
// Block waits for room, DropOldest evicts, and DropNewest cuts the batch at
// the first op that finds the queue full — the accepted prefix stays queued
// and ErrOverloaded reports the dropped suffix. On a standalone monitor each
// accepted op reserves the next sequence number (a rejected one consumes
// none) and the first reserved number is returned; a shard member's ops
// carry their global numbers already. The ops' admission stamps travel with
// them, so measured latency includes queue residency.
func (q *asyncQueue) enqueue(ops []writeOp) (uint64, error) {
	q.enqMu.Lock()
	defer q.enqMu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	first, reserve := q.next, q.m.opts.shard == nil
	for i := range ops {
		if reserve {
			ops[i].seq = q.next
		}
		if !q.put(ops[i]) {
			q.m.met.qDrops.Add(uint64(len(ops) - i - 1)) // the put counted ops[i] itself
			return first, fmt.Errorf("batch elements %d..%d dropped: %w", i, len(ops)-1, ErrOverloaded)
		}
		if reserve {
			q.next++
		}
	}
	return first, nil
}

// singleOpErr reports a one-element enqueue's overload as plain
// ErrOverloaded: a Push, unlike a PushBatch, has no dropped suffix to name.
func singleOpErr(err error) error {
	if errors.Is(err, ErrOverloaded) {
		return ErrOverloaded
	}
	return err
}

// stop closes the queue to producers and waits until the consumer has
// applied everything already queued and exited. Idempotent.
func (q *asyncQueue) stop() {
	q.enqMu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.enqMu.Unlock()
	<-q.done
}

// run is the single consumer: it drains the queue in batches of up to
// maxIngestBatch operations and applies each batch as one write, publishing
// one view per batch. buf reserves one extra slot for a shard member's
// watermark tick.
func (q *asyncQueue) run() {
	defer close(q.done)
	buf := make([]writeOp, 0, maxIngestBatch+1)
	for {
		select {
		case op, ok := <-q.ch:
			if !ok {
				return
			}
			buf = q.gather(append(buf[:0], op))
			q.ingest(buf)
		case ack := <-q.flush:
			// Every element sent before the Drain call is already
			// buffered in ch (its send completed first), so a
			// non-blocking sweep empties everything Drain must wait for.
			buf = buf[:0]
			for {
				select {
				case op, ok := <-q.ch:
					if !ok {
						break
					}
					buf = append(buf, op)
					if len(buf) == maxIngestBatch {
						q.ingest(buf)
						buf = buf[:0]
					}
					continue
				default:
				}
				break
			}
			if len(buf) > 0 {
				q.ingest(buf)
			} else {
				// An idle shard still advances to the current global
				// watermark, so a Drain of the sharded front end leaves
				// every shard expired to the same stream position.
				_ = q.m.applyWatermark()
			}
			close(ack)
		}
	}
}

// gather opportunistically tops the batch up with whatever is already
// queued, without blocking.
func (q *asyncQueue) gather(buf []writeOp) []writeOp {
	for len(buf) < maxIngestBatch {
		select {
		case op, ok := <-q.ch:
			if !ok {
				return buf
			}
			buf = append(buf, op)
		default:
			return buf
		}
	}
	return buf
}

// ingest applies one drained batch, passing the current queue depth so
// flight records capture the backlog behind it. A shard member's batch ends
// with a watermark tick, so expiry catches up to sequence numbers routed to
// other shards. A durability failure is already latched in the monitor
// (later pushes fail fast) and the batch is dropped; the enqueuers have
// long returned. buf's payload references are cleared afterwards so the
// scratch does not pin expired points.
func (q *asyncQueue) ingest(buf []writeOp) {
	if op, ok := q.m.wmOp(); ok {
		buf = append(buf, op)
	}
	_, _ = q.m.apply(buf, len(q.ch))
	clear(buf)
	// Semi-sync replication: the consumer, not the enqueuer, carries the
	// quorum wait, so backpressure surfaces as queue depth rather than a
	// blocked enqueue. Waiter errors (replication server shutdown) are
	// dropped here — the batch is applied and locally durable, and the
	// enqueuers already returned their sequence numbers.
	if q.m.commitWaiter.Load() != nil {
		_ = q.m.commitWait(q.m.NextSeq())
	}
}

// Drain blocks until every element enqueued before the call has been
// ingested and is visible to readers through the published view. Without an
// async queue it returns immediately: synchronous pushes publish before
// they return.
func (m *Monitor) Drain() {
	if m.aq == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case m.aq.flush <- ack:
		<-ack
	case <-m.aq.done:
		// Consumer already shut down; Close drained the queue first.
	}
}

// Close drains and shuts down the background goroutines (the async
// ingestion consumer and the shed-policy reattacher), then flushes and
// closes the write-ahead log. Further Push and PushBatch calls return
// ErrClosed; queries keep serving the final published view. Close is
// idempotent and safe to call concurrently. Without an async queue or
// durability it is a no-op.
func (m *Monitor) Close() error {
	if m.aq != nil {
		m.aq.stop()
	}
	m.stopReattacher()
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	if m.wal != nil {
		return m.wal.Close()
	}
	return nil
}
