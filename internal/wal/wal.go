// Package wal models a write-ahead/commit log with group commit, as used by
// Cassandra (CommitLog, periodic sync mode), HBase (HLog) and InnoDB (redo
// log + binary log). Appends accumulate in an in-memory segment; a
// background flusher writes the batch sequentially every sync window.
// Callers choose whether an append must wait for durability (sync) or may
// return as soon as the bytes are buffered (periodic mode, Cassandra's
// default and the mode the paper's setups ran in).
package wal

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Log is a simulated append-only commit log on one node.
type Log struct {
	node   *cluster.Node
	window sim.Time

	pendingBytes int64
	// waiters collects sync appenders for the next group commit; spare is
	// the previous commit's backing array, recycled so the busy-path
	// append never grows a fresh slice. The two arrays alternate roles.
	waiters []*sim.Proc
	spare   []*sim.Proc
	// flusher is the log's single group-commit process. It is spawned on
	// the first append and then persists for the log's lifetime, parking
	// between busy periods instead of exiting: an idle→busy transition is
	// one Wake (an event-heap push) rather than a fresh closure, Proc and
	// coroutine per transition. The parked coroutine is the price — one
	// per log that ever flushed, held until Engine.Close unwinds it.
	flusher     *sim.Proc
	flusherBusy bool
	// closed marks the log torn down by a node kill: appends no longer
	// start the flusher and the buffered tail has been dropped (crash
	// semantics). Reopen clears it on restart.
	closed bool

	totalBytes int64 // durable bytes ever written (disk usage accounting)
	flushes    int64
}

// New creates a log on node with the given group-commit window.
func New(node *cluster.Node, window sim.Time) *Log {
	if window <= 0 {
		window = 10 * sim.Millisecond
	}
	return &Log{node: node, window: window}
}

// Append buffers n bytes. If sync is true the call blocks until the group
// commit that includes these bytes has reached disk; otherwise it returns
// immediately (periodic durability). The async path is allocation-free in
// steady state.
func (l *Log) Append(p *sim.Proc, n int64, sync bool) {
	l.pendingBytes += n
	l.kickFlusher(p.Engine())
	if sync {
		l.waiters = append(l.waiters, p)
		p.Park()
	}
}

// kickFlusher wakes (or first starts) the background group-commit process.
func (l *Log) kickFlusher(e *sim.Engine) {
	if l.closed || l.flusherBusy {
		return
	}
	l.flusherBusy = true
	if l.flusher == nil || l.flusher.Done() {
		l.flusher = e.Go("wal-flusher", l.flushLoop)
		return
	}
	l.flusher.Wake()
}

// flushLoop is the persistent group-commit process: sleep one sync window,
// write the accumulated batch sequentially, wake the batch's sync waiters,
// repeat while bytes keep arriving; park when the log drains. Processes
// run one at a time, so the busy flag and the waiter swap below cannot
// race with Append — control only transfers at Sleep/Park/DiskWrite.
func (l *Log) flushLoop(p *sim.Proc) {
	for {
		for l.pendingBytes > 0 {
			p.Sleep(l.window)
			batch := l.pendingBytes
			waiters := l.waiters
			l.pendingBytes = 0
			l.waiters = l.spare[:0]
			l.node.DiskWrite(p, batch, false) // sequential append
			l.node.AddDiskUsage(batch)
			l.totalBytes += batch
			l.flushes++
			for _, w := range waiters {
				w.Wake()
			}
			// Wake only schedules; no appender ran since the take above,
			// so nothing aliases the old array — recycle it.
			l.spare = waiters[:0]
		}
		l.flusherBusy = false
		if l.closed {
			// The log was torn down while a flush was in flight; the batch
			// above completed (in-flight I/O finishes) but the process must
			// not park as the log's flusher — a restarted log spawns a
			// fresh one.
			return
		}
		p.Park()
	}
}

// AppendDirect accounts n durable bytes without simulation timing; used by
// bulk loaders.
func (l *Log) AppendDirect(n int64) {
	l.totalBytes += n
	l.node.AddDiskUsage(n)
}

// DurableBytes returns all bytes ever flushed.
func (l *Log) DurableBytes() int64 { return l.totalBytes }

// Flushes returns the number of group commits performed.
func (l *Log) Flushes() int64 { return l.flushes }

// Truncate models log segment recycling after a memtable flush: the space
// is reclaimed from the node's disk usage accounting (the data now lives in
// an SSTable), but total write volume is unchanged.
func (l *Log) Truncate(bytes int64) {
	l.node.AddDiskUsage(-bytes)
}

// Close tears the log down on a node kill: the buffered (not yet flushed)
// tail is lost, sync appenders parked for the next group commit are
// released (their process sees the op complete; durability was lost, which
// is exactly a crash's semantics), and the idle flusher process is killed.
// A flusher mid-flush finishes its in-flight batch and then exits on its
// own. Close is idempotent.
func (l *Log) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.pendingBytes = 0
	for _, w := range l.waiters {
		w.Wake()
	}
	l.waiters = l.waiters[:0]
	if l.flusher != nil && !l.flusherBusy {
		l.flusher.Kill()
		l.flusher = nil
	}
}

// Reopen restores a closed log on node restart; the next append spawns a
// fresh flusher.
func (l *Log) Reopen() { l.closed = false }
