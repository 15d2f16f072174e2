package sweepfab

import (
	"testing"
	"time"
)

// boardClock is a fake clock: lease deadlines are pure functions of the
// times handed to Lease/Expire, so expiry is tested without sleeping.
var boardClock = time.Unix(1_700_000_000, 0)

func TestBoardSingleFlight(t *testing.T) {
	b := NewBoard(time.Minute)
	d1 := b.Submit("cell-a", []byte("spec-a"))
	d2 := b.Submit("cell-a", []byte("spec-a"))
	if d1 != d2 {
		t.Fatal("duplicate submits returned distinct done channels")
	}
	id, spec, ok := b.Lease("w1", boardClock)
	if !ok || string(spec) != "spec-a" {
		t.Fatalf("Lease = %d, %q, %v", id, spec, ok)
	}
	if _, _, ok := b.Lease("w2", boardClock); ok {
		t.Fatal("a leased cell was leased twice")
	}
	if !b.Complete(id, true) {
		t.Fatal("live lease completion rejected")
	}
	select {
	case <-d1:
	default:
		t.Fatal("done channel not closed on completion")
	}
	c := b.Counters()
	if c.Submitted != 2 || c.Deduped != 1 || c.Leases != 1 || c.Completions != 1 || c.Requeues != 0 {
		t.Fatalf("counters = %+v", c)
	}
	// A submit after completion returns the closed channel.
	select {
	case <-b.Submit("cell-a", []byte("spec-a")):
	default:
		t.Fatal("submit of a done cell returned an open channel")
	}
}

func TestBoardSubmitOrderIsLeaseOrder(t *testing.T) {
	b := NewBoard(time.Minute)
	b.Submit("first", nil)
	b.Submit("second", nil)
	b.Submit("third", nil)
	for _, want := range []string{"first", "second", "third"} {
		id, _, ok := b.Lease("w", boardClock)
		if !ok {
			t.Fatal("queue drained early")
		}
		b.mu.Lock()
		got := b.byLease[id].key
		b.mu.Unlock()
		if got != want {
			t.Fatalf("leased %q, want %q (submit order must be lease order)", got, want)
		}
	}
}

// TestBoardExpiry is the crash-recovery half of the single-flight
// guarantee: an expired lease requeues its cell exactly once, the cell
// re-leases, and the dead worker's eventual completion is void.
func TestBoardExpiry(t *testing.T) {
	b := NewBoard(time.Minute)
	done := b.Submit("cell", []byte("spec"))
	staleID, _, ok := b.Lease("crashed", boardClock)
	if !ok {
		t.Fatal("lease failed")
	}
	if n := b.Expire(boardClock.Add(30 * time.Second)); n != 0 {
		t.Fatalf("lease expired %d cell(s) before its deadline", n)
	}
	if n := b.Expire(boardClock.Add(2 * time.Minute)); n != 1 {
		t.Fatalf("Expire past deadline = %d, want 1", n)
	}
	// The cell re-leases to a live worker; the crashed worker's stale
	// completion must be rejected, not complete the re-leased cell.
	newID, _, ok := b.Lease("alive", boardClock.Add(2*time.Minute))
	if !ok {
		t.Fatal("expired cell did not requeue")
	}
	if b.Complete(staleID, true) {
		t.Fatal("stale lease completion accepted")
	}
	select {
	case <-done:
		t.Fatal("stale completion closed the done channel")
	default:
	}
	if !b.Complete(newID, true) {
		t.Fatal("re-leased completion rejected")
	}
	<-done
	c := b.Counters()
	if c.Expirations != 1 || c.Requeues != 1 || c.Completions != 1 || c.Leases != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestBoardReleaseWorker(t *testing.T) {
	b := NewBoard(time.Minute)
	b.Submit("a", nil)
	b.Submit("b", nil)
	b.Lease("w1", boardClock)
	b.Lease("w1", boardClock)
	if n := b.ReleaseWorker("w2"); n != 0 {
		t.Fatalf("released %d cells for an unknown worker", n)
	}
	if n := b.ReleaseWorker("w1"); n != 2 {
		t.Fatalf("ReleaseWorker = %d, want 2", n)
	}
	if b.Idle() {
		t.Fatal("board idle with requeued cells pending")
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := b.Lease("w3", boardClock); !ok {
			t.Fatal("released cells did not requeue")
		}
	}
	if c := b.Counters(); c.Disconnects != 2 || c.Requeues != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestBoardFailureBounded: a cell failing on every worker requeues only
// maxCellFails-1 times, then completes so waiters stop blocking and the
// coordinator's store recheck surfaces the failure.
func TestBoardFailureBounded(t *testing.T) {
	b := NewBoard(time.Minute)
	done := b.Submit("doomed", nil)
	for i := 0; i < maxCellFails; i++ {
		id, _, ok := b.Lease("w", boardClock)
		if !ok {
			t.Fatalf("lease %d: queue empty (cell completed too early)", i)
		}
		if !b.Complete(id, false) {
			t.Fatalf("failure report %d rejected", i)
		}
	}
	select {
	case <-done:
	default:
		t.Fatal("cell did not complete after exhausting failure budget")
	}
	if _, _, ok := b.Lease("w", boardClock); ok {
		t.Fatal("failed-out cell requeued past its budget")
	}
	if c := b.Counters(); c.Failures != maxCellFails || c.Requeues != maxCellFails-1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestBoardReopen(t *testing.T) {
	b := NewBoard(time.Minute)
	d1 := b.Submit("cell", []byte("spec"))
	id, _, _ := b.Lease("w", boardClock)
	b.Complete(id, true)
	<-d1

	d2 := b.Reopen("cell")
	select {
	case <-d2:
		t.Fatal("reopened cell's channel is already closed")
	default:
	}
	// Submit now joins the reopened attempt, not the stale closed chan.
	if d3 := b.Submit("cell", []byte("spec")); d3 != d2 {
		t.Fatal("submit after reopen returned a different channel")
	}
	id2, spec, ok := b.Lease("w", boardClock)
	if !ok || string(spec) != "spec" {
		t.Fatal("reopened cell did not requeue with its spec")
	}
	b.Complete(id2, true)
	<-d2
	if c := b.Counters(); c.Reopens != 1 || c.Completions != 2 {
		t.Fatalf("counters = %+v", c)
	}
	// Reopening an unknown key hands back a closed channel.
	select {
	case <-b.Reopen("never-submitted"):
	default:
		t.Fatal("Reopen of unknown key returned an open channel")
	}
}

// TestBoardWakesBlockedLease pins every path that makes a cell
// leasable: each closes the channel a lease request blocked on an empty
// queue waits on, and the cell it queued is then leasable.
func TestBoardWakesBlockedLease(t *testing.T) {
	cases := []struct {
		name string
		// setup brings the board to an empty queue; act then queues a cell.
		setup func(b *Board) uint64
		act   func(b *Board, id uint64)
	}{
		{"Submit", func(b *Board) uint64 { return 0 },
			func(b *Board, _ uint64) { b.Submit("cell", nil) }},
		{"Expire", leaseOne,
			func(b *Board, _ uint64) { b.Expire(boardClock.Add(2 * time.Minute)) }},
		{"ReleaseWorker", leaseOne,
			func(b *Board, _ uint64) { b.ReleaseWorker("w") }},
		{"FailedComplete", leaseOne,
			func(b *Board, id uint64) { b.Complete(id, false) }},
		{"Reopen", func(b *Board) uint64 {
			id := leaseOne(b)
			b.Complete(id, true)
			return id
		}, func(b *Board, _ uint64) { b.Reopen("cell") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBoard(time.Minute)
			id := tc.setup(b)
			wake := b.Wake()
			if _, _, ok := b.Lease("w2", boardClock); ok {
				t.Fatal("setup left a leasable cell")
			}
			select {
			case <-wake:
				t.Fatal("wake channel closed with nothing queued")
			default:
			}
			tc.act(b, id)
			select {
			case <-wake:
			default:
				t.Fatal("queueing a cell did not wake the blocked lease")
			}
			if _, _, ok := b.Lease("w2", boardClock); !ok {
				t.Fatal("woken lease found nothing to lease")
			}
		})
	}
}

// leaseOne submits one cell and leases it to worker "w".
func leaseOne(b *Board) uint64 {
	b.Submit("cell", nil)
	id, _, _ := b.Lease("w", boardClock)
	return id
}
