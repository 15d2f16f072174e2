package sweepfab

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/simstore"
	"repro/internal/snap"
)

// startCoordinator spins a coordinator over a throwaway store on a
// loopback listener and returns its address.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	if cfg.Store == nil {
		st, err := simstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	c := NewCoordinator(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(lis)
	t.Cleanup(func() { c.Close() })
	return c, lis.Addr().String()
}

// rawConn dials the coordinator and speaks raw frames, for testing the
// protocol's error paths below the worker client.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (r *rawConn) send(body []byte) {
	r.t.Helper()
	if err := writeFrame(r.conn, body); err != nil {
		r.t.Fatal(err)
	}
}

// recvErr reads one response frame and requires it to be a typed error.
func (r *rawConn) recvErr() error {
	r.t.Helper()
	body, err := readFrame(r.br, defaultMaxFrame)
	if err != nil {
		r.t.Fatal(err)
	}
	if len(body) == 0 || body[0] != opFabErr {
		r.t.Fatalf("response op 0x%02x, want opFabErr", body[0])
	}
	werr := decodeFabError(snap.NewDecoder(body[1:]), len(body))
	if werr == nil {
		r.t.Fatal("opFabErr decoded to nil")
	}
	return werr
}

// recvOp reads one response frame and returns its op.
func (r *rawConn) recvOp() uint8 {
	r.t.Helper()
	body, err := readFrame(r.br, defaultMaxFrame)
	if err != nil {
		r.t.Fatal(err)
	}
	if len(body) == 0 {
		r.t.Fatal("empty response frame")
	}
	return body[0]
}

// TestWireErrorRoundTrip pins that every fabric failure class survives
// the encode/decode round trip: errors.Is against each sentinel holds
// on the decoded side, which is the whole point of the typed codes.
func TestWireErrorRoundTrip(t *testing.T) {
	cases := []*WireError{
		{Code: CodeFabBadFrame, Msg: "mangled"},
		{Code: CodeFabBadOrder, Msg: "lease before hello"},
		{Code: CodeFabBadLease, Msg: "lease 7 not held"},
		{Code: CodeFabTooLarge, Msg: "frame of doom"},
	}
	sentinels := []error{ErrFabBadFrame, ErrFabBadOrder, ErrFabBadLease, ErrFabTooLarge}
	for i, we := range cases {
		body := encodeFabError(we)
		if body[0] != opFabErr {
			t.Fatalf("encoded op = 0x%02x", body[0])
		}
		got := decodeFabError(snap.NewDecoder(body[1:]), len(body))
		if !errors.Is(got, sentinels[i]) {
			t.Fatalf("decoded %v does not match sentinel %v", got, sentinels[i])
		}
		for j, other := range sentinels {
			if j != i && errors.Is(got, other) {
				t.Fatalf("decoded %v wrongly matches %v", got, other)
			}
		}
		var back *WireError
		if !errors.As(got, &back) || back.Msg != we.Msg {
			t.Fatalf("message lost: %v", got)
		}
	}
}

func TestWireRequestBeforeHello(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	r := dialRaw(t, addr)
	r.send(encodeLease())
	if err := r.recvErr(); !errors.Is(err, ErrFabBadOrder) {
		t.Fatalf("lease before hello: %v, want ErrFabBadOrder", err)
	}
}

func TestWireDuplicateHello(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	if op := r.recvOp(); op != opFabWelcome {
		t.Fatalf("hello response op 0x%02x", op)
	}
	r.send(encodeHello("w"))
	if err := r.recvErr(); !errors.Is(err, ErrFabBadOrder) {
		t.Fatalf("duplicate hello: %v, want ErrFabBadOrder", err)
	}
}

func TestWireUnknownOp(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	r.recvOp()
	r.send([]byte{0x7E})
	if err := r.recvErr(); !errors.Is(err, ErrFabBadFrame) {
		t.Fatalf("unknown op: %v, want ErrFabBadFrame", err)
	}
}

func TestWireOversizedFrame(t *testing.T) {
	_, addr := startCoordinator(t, Config{MaxFrame: 256})
	r := dialRaw(t, addr)
	r.send(make([]byte, 4096))
	// The coordinator refuses to even read the body; the connection
	// drops with a too-large error frame.
	if err := r.recvErr(); !errors.Is(err, ErrFabTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFabTooLarge", err)
	}
}

func TestWireBadLeaseCompletion(t *testing.T) {
	c, addr := startCoordinator(t, Config{})
	c.Board().Submit("cell", []byte("spec"))
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	r.recvOp()
	r.send(encodeDone(12345, true))
	if err := r.recvErr(); !errors.Is(err, ErrFabBadLease) {
		t.Fatalf("bogus completion: %v, want ErrFabBadLease", err)
	}
	// Survivable: the same connection still gets leases.
	r.send(encodeLease())
	if op := r.recvOp(); op != opFabCell {
		t.Fatalf("post-error lease response op 0x%02x, want opFabCell", op)
	}
}

// TestWireBlockedLeaseGetsLaterSubmit: a lease request on an empty
// queue blocks instead of answering opFabWait, and a cell submitted
// later is handed to it at once, not after a poll delay.
func TestWireBlockedLeaseGetsLaterSubmit(t *testing.T) {
	c, addr := startCoordinator(t, Config{})
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	r.recvOp()
	r.send(encodeLease())
	time.Sleep(20 * time.Millisecond) // let the request reach the empty board
	start := time.Now()               //ppflint:allow determinism test latency measurement
	c.Board().Submit("cell", []byte("spec"))
	if op := r.recvOp(); op != opFabCell {
		t.Fatalf("blocked lease answered op 0x%02x, want opFabCell", op)
	}
	// The default wait bound is 75 s; anything near it means the handoff
	// waited for a timeout rather than the submit's wake-up.
	if d := time.Since(start); d > time.Second { //ppflint:allow determinism test latency measurement
		t.Fatalf("submitted cell reached the blocked worker after %v", d)
	}
}

// TestWireLeaseWaitBound: a lease request that finds nothing for the
// whole wait bound is answered opFabWait(0), and the connection stays
// usable for the worker's immediate re-ask.
func TestWireLeaseWaitBound(t *testing.T) {
	c, addr := startCoordinator(t, Config{LeaseTimeout: 40 * time.Millisecond})
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	r.recvOp()
	r.send(encodeLease())
	body, err := readFrame(r.br, defaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != opFabWait {
		t.Fatalf("empty-queue lease answered op 0x%02x, want opFabWait", body[0])
	}
	if v, err := decodeUint64Body(snap.NewDecoder(body[1:])); err != nil || v != 0 {
		t.Fatalf("opFabWait payload = %d, %v; want 0", v, err)
	}
	c.Board().Submit("cell", []byte("spec"))
	r.send(encodeLease())
	if op := r.recvOp(); op != opFabCell {
		t.Fatalf("re-asked lease answered op 0x%02x, want opFabCell", op)
	}
}

// TestWireCloseUnblocksWaiters: closing the coordinator answers every
// blocked lease request with opFabShutdown.
func TestWireCloseUnblocksWaiters(t *testing.T) {
	c, addr := startCoordinator(t, Config{})
	conns := make([]*rawConn, 3)
	for i := range conns {
		conns[i] = dialRaw(t, addr)
		conns[i].send(encodeHello("w"))
		conns[i].recvOp()
		conns[i].send(encodeLease())
	}
	time.Sleep(20 * time.Millisecond) // let the requests reach the empty board
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	for i, r := range conns {
		if op := r.recvOp(); op != opFabShutdown {
			t.Fatalf("waiter %d answered op 0x%02x, want opFabShutdown", i, op)
		}
		r.conn.Close()
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after its waiters were shut down")
	}
}

func TestWireLeaseGrantAndCompletion(t *testing.T) {
	c, addr := startCoordinator(t, Config{})
	done := c.Board().Submit("cell-key", []byte("cell-spec"))
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	r.recvOp()
	r.send(encodeLease())
	body, err := readFrame(r.br, defaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != opFabCell {
		t.Fatalf("lease response op 0x%02x, want opFabCell", body[0])
	}
	id, spec, err := decodeCell(snap.NewDecoder(body[1:]), len(body))
	if err != nil {
		t.Fatal(err)
	}
	if string(spec) != "cell-spec" {
		t.Fatalf("leased spec = %q", spec)
	}
	r.send(encodeDone(id, true))
	if op := r.recvOp(); op != opFabAck {
		t.Fatalf("completion response op 0x%02x, want opFabAck", op)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("completion did not close the submit channel")
	}
}

// TestWireDisconnectRequeues: dropping a connection mid-lease returns
// the cell to the queue for the next worker.
func TestWireDisconnectRequeues(t *testing.T) {
	c, addr := startCoordinator(t, Config{})
	c.Board().Submit("cell", []byte("spec"))
	r := dialRaw(t, addr)
	r.send(encodeHello("doomed"))
	r.recvOp()
	r.send(encodeLease())
	if op := r.recvOp(); op != opFabCell {
		t.Fatalf("lease response op 0x%02x", op)
	}
	r.conn.Close()

	// The requeue happens when the coordinator's read loop notices the
	// close; poll the counters rather than racing it.
	deadline := time.Now().Add(5 * time.Second) //ppflint:allow determinism test retry deadline
	for c.Board().Counters().Disconnects == 0 {
		if time.Now().After(deadline) { //ppflint:allow determinism test retry deadline
			t.Fatal("disconnect never released the lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	r2 := dialRaw(t, addr)
	r2.send(encodeHello("rescuer"))
	r2.recvOp()
	r2.send(encodeLease())
	if op := r2.recvOp(); op != opFabCell {
		t.Fatalf("requeued cell not re-leased (op 0x%02x)", op)
	}
}

// TestFrameSizeBounds sanity-checks the bound table against the actual
// encoders: every encoded frame must fit its own op's bound.
func TestFrameSizeBounds(t *testing.T) {
	frames := map[string][]byte{
		"hello":    encodeHello("some-worker"),
		"lease":    encodeLease(),
		"done":     encodeDone(1, true),
		"welcome":  encodeWelcome(300_000),
		"cell":     encodeCell(7, make([]byte, 512)),
		"wait":     encodeWait(),
		"shutdown": encodeShutdown(),
		"ack":      encodeAck(),
		"err":      encodeFabError(ErrFabBadLease),
	}
	for name, body := range frames {
		if len(body) == 0 {
			t.Fatalf("%s: empty frame", name)
		}
		bound := fabBoundFor(body[0], defaultMaxFrame)
		if len(body) > bound {
			t.Errorf("%s: %d-byte frame exceeds its own bound %d", name, len(body), bound)
		}
	}
}
