package sweepfab

import (
	"sort"
	"sync"
	"time"
)

// cellPhase is a board entry's lifecycle position.
type cellPhase uint8

const (
	phaseQueued cellPhase = iota
	phaseLeased
	phaseDone
)

// boardCell is one cell's lease-board entry.
type boardCell struct {
	key  string
	spec []byte
	//ppflint:guardedby mu
	phase cellPhase
	//ppflint:guardedby mu
	leaseID uint64
	//ppflint:guardedby mu
	worker string
	//ppflint:guardedby mu
	deadline time.Time
	//ppflint:guardedby mu
	fails int
	// done is closed when the cell completes; Reopen replaces it, so
	// holders of the old channel (a previous attempt) still unblock.
	//ppflint:guardedby mu
	done chan struct{}
}

// Counters are the board's cumulative event counts, the audit trail
// that proves the fleet's single-flight: with no crashes or corruption,
// Completions == Submitted - Deduped and Requeues == Expirations == 0,
// so every unique cell was simulated exactly once.
type Counters struct {
	// Submitted counts Submit calls; Deduped counts those that matched
	// an existing entry (the cross-caller single-flight hits).
	Submitted, Deduped uint64
	// Leases counts grants; Completions successful completions.
	Leases, Completions uint64
	// Requeues counts cells returned to the queue for any reason;
	// Expirations and Disconnects and Failures break it down by cause.
	Requeues, Expirations, Disconnects, Failures uint64
	// Reopens counts done cells reset by the coordinator after a store
	// fetch failed (corrupt shared entry).
	Reopens uint64
}

// maxCellFails bounds per-cell worker failure reports before the board
// gives up and completes the cell anyway: the coordinator's store
// recheck then fails and surfaces the error instead of the fleet
// spinning on an unrunnable cell.
const maxCellFails = 3

// Board is the coordinator's lease board: the cross-fleet
// generalization of runner.Memo. Submit is the single-flight entry
// (one entry per key, later submitters share it), Lease hands queued
// cells to workers one at a time, and Complete/Expire/ReleaseWorker
// manage the lease lifecycle. All methods take explicit times so lease
// expiry is testable with a fake clock.
type Board struct {
	mu sync.Mutex
	//ppflint:guardedby mu
	cells map[string]*boardCell
	// queue holds queued cells in submit order: the fleet works cells in
	// the same deterministic order a local run enumerates them.
	//ppflint:guardedby mu
	queue []*boardCell
	//ppflint:guardedby mu
	byLease map[uint64]*boardCell
	//ppflint:guardedby mu
	nextLease uint64
	//ppflint:guardedby mu
	counters Counters
	// wake is closed and replaced whenever a cell becomes leasable, so
	// lease requests blocked on an empty queue retry (see Wake).
	//ppflint:guardedby mu
	wake chan struct{}
	// leaseTimeout is how long a lease lives without completion before
	// Expire requeues it.
	leaseTimeout time.Duration
}

// NewBoard returns an empty board with the given lease timeout.
func NewBoard(leaseTimeout time.Duration) *Board {
	return &Board{
		cells:        make(map[string]*boardCell),
		byLease:      make(map[uint64]*boardCell),
		wake:         make(chan struct{}),
		leaseTimeout: leaseTimeout,
	}
}

// Submit registers a cell (idempotently: one entry per key, however
// many experiment goroutines request it) and returns the channel closed
// on completion. A done cell returns its already-closed channel.
func (b *Board) Submit(key string, spec []byte) <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counters.Submitted++
	if c, ok := b.cells[key]; ok {
		b.counters.Deduped++
		return c.done
	}
	c := &boardCell{key: key, spec: spec, done: make(chan struct{})}
	b.cells[key] = c
	b.enqueueLocked(c)
	return c.done
}

// Wake returns a channel closed the next time a cell becomes leasable:
// submitted, requeued or reopened. Take it before a Lease that finds
// the queue empty, then wait on it; a cell queued between the two
// calls has already closed it, so no wake-up is lost.
func (b *Board) Wake() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wake
}

// Lease grants the oldest queued cell to worker, stamping its deadline
// from now. ok is false when nothing is queued.
func (b *Board) Lease(worker string, now time.Time) (leaseID uint64, spec []byte, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return 0, nil, false
	}
	c := b.queue[0]
	b.queue = b.queue[1:]
	b.nextLease++
	c.phase = phaseLeased
	c.leaseID = b.nextLease
	c.worker = worker
	c.deadline = now.Add(b.leaseTimeout)
	b.byLease[c.leaseID] = c
	b.counters.Leases++
	return c.leaseID, c.spec, true
}

// Complete resolves a lease: on ok the cell is done and its waiters
// unblock; on !ok the cell requeues (bounded by maxCellFails, after
// which it completes anyway so waiters surface the failure instead of
// hanging). Unknown or stale lease ids return false — the cell expired
// and was re-leased, so this worker's report is void.
func (b *Board) Complete(leaseID uint64, ok bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, held := b.byLease[leaseID]
	if !held {
		return false
	}
	delete(b.byLease, leaseID)
	if !ok {
		c.fails++
		b.counters.Failures++
		if c.fails < maxCellFails {
			b.requeueLocked(c)
			return true
		}
		// Fall through: give up and complete, waiters re-check the store.
	}
	c.phase = phaseDone
	b.counters.Completions++
	close(c.done)
	return true
}

// Expire requeues every lease whose deadline has passed at now. The
// worker holding an expired lease may still be running; its eventual
// Complete is void (stale lease id), and the store's atomic writes make
// a double-publish harmless — both workers write the identical entry.
func (b *Board) Expire(now time.Time) (expired int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, c := range b.byLease {
		if now.After(c.deadline) {
			delete(b.byLease, id)
			b.counters.Expirations++
			b.requeueLocked(c)
			expired++
		}
	}
	return expired
}

// ReleaseWorker requeues every cell leased to worker (its connection
// dropped, so no completion is coming).
func (b *Board) ReleaseWorker(worker string) (released int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, c := range b.byLease {
		if c.worker == worker {
			delete(b.byLease, id)
			b.counters.Disconnects++
			b.requeueLocked(c)
			released++
		}
	}
	return released
}

// Reopen resets a done cell to queued with a fresh done channel (the
// coordinator found the published store entry missing or corrupt) and
// returns the new channel. A cell that is not done is returned as-is.
func (b *Board) Reopen(key string) <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.cells[key]
	if !ok {
		// Nothing to reopen; hand back a closed channel so the caller's
		// Submit-after-Reopen pattern still works.
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if c.phase != phaseDone {
		return c.done
	}
	c.phase = phaseQueued
	c.fails = 0
	c.done = make(chan struct{})
	b.counters.Reopens++
	b.enqueueLocked(c)
	return c.done
}

// requeueLocked returns a leased cell to the queue. Callers hold mu.
//
//ppflint:locked mu
func (b *Board) requeueLocked(c *boardCell) {
	c.phase = phaseQueued
	c.worker = ""
	c.leaseID = 0
	b.counters.Requeues++
	b.enqueueLocked(c)
}

// enqueueLocked appends a cell to the lease queue and wakes every
// blocked lease request. Callers hold mu.
//
//ppflint:locked mu
func (b *Board) enqueueLocked(c *boardCell) {
	b.queue = append(b.queue, c)
	close(b.wake)
	b.wake = make(chan struct{})
}

// Counters returns a copy of the cumulative event counts.
func (b *Board) Counters() Counters {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counters
}

// Idle reports whether the board holds no queued or leased work.
func (b *Board) Idle() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue) == 0 && len(b.byLease) == 0
}

// Keys returns every submitted cell key in sorted order (tests).
func (b *Board) Keys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.cells))
	for k := range b.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
