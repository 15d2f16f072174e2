package sweepfab

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/experiment"
	"repro/internal/snap"
)

// WorkerConfig parameterizes one fleet worker.
type WorkerConfig struct {
	// Name labels the worker in coordinator logs and lease ownership.
	Name string
	// Exec runs leased cells. Attach a RunCache backed by the shared
	// store (remote or tiered): the cache's store recheck before
	// simulating is the second half of the fleet single-flight, and its
	// save path is how results and warmup snapshots get published.
	Exec experiment.Exec
	// DialRetry is how long to keep retrying the initial dial (0 = 10s),
	// so workers can start before the coordinator is listening.
	DialRetry time.Duration
	// MaxFrame bounds fabric frames (0 = 1 MiB).
	MaxFrame int
}

// WorkerStats summarizes one worker's session.
type WorkerStats struct {
	// Cells counts leases run to completion (successfully or not).
	Cells uint64
	// Failed counts leased cells whose simulation failed (bad spec).
	Failed uint64
	// Waits counts opFabWait replies: lease requests that found the
	// queue empty for the coordinator's whole wait bound.
	Waits uint64
	// StaleLeases counts completions the coordinator voided (the lease
	// expired and was re-issued while this worker was simulating).
	StaleLeases uint64
}

// RunWorker dials the coordinator at addr and runs leased cells until
// the coordinator shuts the fleet down. It returns the session stats
// and the first fatal error (nil on a clean shutdown).
func RunWorker(addr string, cfg WorkerConfig) (WorkerStats, error) {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 10 * time.Second
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = defaultMaxFrame
	}
	var stats WorkerStats
	conn, err := dialRetry(addr, cfg.DialRetry)
	if err != nil {
		return stats, err
	}
	defer conn.Close()
	w := &workerConn{
		cfg:  cfg,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
	if err := w.hello(); err != nil {
		return stats, err
	}
	err = w.loop(&stats)
	return stats, err
}

// dialRetry dials addr, retrying with a short backoff for the
// configured window so fleet start order doesn't matter.
func dialRetry(addr string, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window) //ppflint:allow determinism dial retry window is fleet startup plumbing, not report data
	for {
		conn, err := net.DialTimeout("tcp", addr, window)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) { //ppflint:allow determinism dial retry window is fleet startup plumbing, not report data
			return nil, fmt.Errorf("sweepfab: dialing coordinator %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// workerConn is one worker's protocol state.
type workerConn struct {
	cfg  WorkerConfig
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// leaseTimeout is the coordinator's advertised lease lifetime
	// (informational; the coordinator enforces it).
	leaseTimeout time.Duration
}

// request writes one frame and reads the response, returning the
// response op and a decoder positioned after it. An opFabErr response
// is decoded into the typed error. wantOps guards against a desynced
// peer: a response op outside the set is a protocol error.
//
//ppflint:wiredecode
func (w *workerConn) request(body []byte, wantOps ...uint8) (uint8, *snap.Walker, int, error) {
	if err := writeFrame(w.bw, body); err != nil {
		return 0, nil, 0, err
	}
	if err := w.bw.Flush(); err != nil {
		return 0, nil, 0, err
	}
	resp, err := readFrame(w.br, w.cfg.MaxFrame)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(resp) == 0 {
		return 0, nil, 0, fmt.Errorf("%w: empty response", ErrFabBadFrame)
	}
	op := resp[0]
	if bound := fabBoundFor(op, w.cfg.MaxFrame); len(resp) > bound {
		return 0, nil, 0, fmt.Errorf("%w: %d-byte response for op 0x%02x (bound %d)",
			ErrFabTooLarge, len(resp), op, bound)
	}
	dec := snap.NewDecoder(resp[1:])
	if op == opFabErr {
		return 0, nil, 0, decodeFabError(dec, len(resp))
	}
	for _, want := range wantOps {
		if op == want {
			return op, dec, len(resp), nil
		}
	}
	return 0, nil, 0, fmt.Errorf("%w: unexpected response op 0x%02x", ErrFabBadFrame, op)
}

// hello opens the session and records the advertised lease timeout.
func (w *workerConn) hello() error {
	_, dec, _, err := w.request(encodeHello(w.cfg.Name), opFabWelcome)
	if err != nil {
		return err
	}
	millis, err := decodeUint64Body(dec)
	if err != nil {
		return err
	}
	w.leaseTimeout = time.Duration(millis) * time.Millisecond
	return nil
}

// loop leases and runs cells until shutdown.
func (w *workerConn) loop(stats *WorkerStats) error {
	for {
		op, dec, frameLen, err := w.request(encodeLease(), opFabCell, opFabWait, opFabShutdown)
		if err != nil {
			return err
		}
		switch op {
		case opFabShutdown:
			return nil
		case opFabWait:
			if _, err := decodeUint64Body(dec); err != nil {
				return err
			}
			stats.Waits++
		case opFabCell:
			leaseID, specBytes, err := decodeCell(dec, frameLen)
			if err != nil {
				return err
			}
			ok := w.runCell(specBytes)
			stats.Cells++
			if !ok {
				stats.Failed++
			}
			if err := w.complete(leaseID, ok, stats); err != nil {
				return err
			}
		}
	}
}

// runCell simulates one leased cell through the Exec path. The run
// cache attached to the Exec rechecks the shared store first (another
// worker may have published the cell after an expired lease) and
// publishes the result on a miss. A failure here is a spec problem
// (unknown workload or scheme after version skew), reported to the
// coordinator as a failed completion, not a worker crash.
func (w *workerConn) runCell(specBytes []byte) (ok bool) {
	spec, err := experiment.DecodeCellSpec(specBytes)
	if err != nil {
		log.Printf("sweepfab: worker %s: undecodable cell spec: %v", w.cfg.Name, err)
		return false
	}
	if _, err := spec.Run(w.cfg.Exec); err != nil {
		log.Printf("sweepfab: worker %s: cell %s failed: %v", w.cfg.Name, spec.Key(), err)
		return false
	}
	return true
}

// complete reports a finished lease. A bad-lease error is survivable:
// the lease expired mid-run and the cell was re-issued, so only this
// worker's claim is void — the published store entry stands.
func (w *workerConn) complete(leaseID uint64, ok bool, stats *WorkerStats) error {
	_, _, _, err := w.request(encodeDone(leaseID, ok), opFabAck)
	if errors.Is(err, ErrFabBadLease) {
		stats.StaleLeases++
		return nil
	}
	return err
}
