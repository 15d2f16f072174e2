// Package sweepfab is the distributed sweep fabric: a coordinator that
// enumerates experiment cells in their existing deterministic order and
// leases them to workers over a length-prefixed binary protocol, plus
// the worker loop that simulates leased cells through the unchanged
// experiment.Exec path and publishes results to a shared simstore
// backend.
//
// The fabric generalizes runner.Memo's single-flight guarantee across
// processes: within one coordinator a cell key maps to one lease-board
// entry no matter how many experiment goroutines request it, a leased
// cell is handed to exactly one live worker at a time, and a worker
// only simulates after re-checking the shared store — so a cell
// simulates at most once fleet-wide on the happy path, with lease
// expiry (worker crash) as the only source of re-runs.
//
// Wire format (same conventions as internal/serve): each direction is a
// sequence of frames,
//
//	uint32 LE body length | body
//
// where body = op byte | payload encoded with the internal/snap walker.
// The first worker frame must be opFabHello; every subsequent request
// gets exactly one response, in order.
package sweepfab

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/snap"
)

// Request ops (worker to coordinator). Response ops echo in the high
// bit so a stray request byte can never parse as a reply.
const (
	opFabHello uint8 = 0x01 // payload: worker name (Len-prefixed bytes)
	opFabLease uint8 = 0x02 // payload: empty
	opFabDone  uint8 = 0x03 // payload: lease id (uint64) + ok (bool)
)

// Response ops (coordinator to worker).
const (
	opFabWelcome  uint8 = 0x81 // payload: lease timeout in millis (uint64)
	opFabCell     uint8 = 0x82 // payload: lease id (uint64) + cell spec (Len-prefixed bytes)
	opFabWait     uint8 = 0x83 // payload: reserved uint64, always 0; the worker re-asks at once
	opFabShutdown uint8 = 0x84 // payload: empty
	opFabAck      uint8 = 0x85 // payload: empty
	opFabErr      uint8 = 0xFF // payload: code byte + message (Len-prefixed bytes)
)

// FabErrorCode classifies fabric protocol failures on the wire; a
// *WireError carries one end to end so both sides can branch with
// errors.Is against the sentinels below.
type FabErrorCode uint8

// Wire error codes.
const (
	// CodeFabBadFrame: the frame failed to parse (unknown op, short or
	// malformed payload).
	CodeFabBadFrame FabErrorCode = 1 + iota
	// CodeFabBadOrder: a request arrived before the opening hello.
	CodeFabBadOrder
	// CodeFabBadLease: a completion named a lease the board does not
	// hold for this worker (expired and re-leased, or never issued).
	CodeFabBadLease
	// CodeFabTooLarge: the frame length exceeded the configured bound.
	CodeFabTooLarge

	codeFabCount
)

// String renders the code for diagnostics.
func (c FabErrorCode) String() string {
	switch c {
	case CodeFabBadFrame:
		return "bad-frame"
	case CodeFabBadOrder:
		return "bad-order"
	case CodeFabBadLease:
		return "bad-lease"
	case CodeFabTooLarge:
		return "too-large"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// WireError is the typed fabric protocol error. The coordinator encodes
// one into an opFabErr frame; the worker decodes it back, so
// errors.Is(err, ErrFabBadLease) holds across the connection.
type WireError struct {
	Code FabErrorCode
	Msg  string
}

// Error renders the code and message.
func (e *WireError) Error() string { return fmt.Sprintf("sweepfab: %s: %s", e.Code, e.Msg) }

// Is matches any *WireError with the same code, making the exported
// sentinels usable as errors.Is targets.
func (e *WireError) Is(target error) bool {
	t, ok := target.(*WireError)
	return ok && t.Code == e.Code
}

// Sentinel instances for errors.Is. Matching is by code, so an error
// decoded off the wire (with its own message) still matches.
var (
	ErrFabBadFrame = &WireError{Code: CodeFabBadFrame, Msg: "malformed frame"}
	ErrFabBadOrder = &WireError{Code: CodeFabBadOrder, Msg: "request before hello"}
	ErrFabBadLease = &WireError{Code: CodeFabBadLease, Msg: "lease not held"}
	ErrFabTooLarge = &WireError{Code: CodeFabTooLarge, Msg: "frame exceeds bound"}
)

// parseFabErrorCode validates a code byte from the wire.
func parseFabErrorCode(b uint8) (FabErrorCode, error) {
	if b == 0 || b >= uint8(codeFabCount) {
		return 0, fmt.Errorf("%w: error code byte 0x%02x", ErrFabBadFrame, b)
	}
	return FabErrorCode(b), nil
}

// frameHdrLen is the length prefix: one uint32.
const frameHdrLen = 4

// Wire size constants, fixed by the snap walker conventions.
const (
	lenFieldSize = 8
	// maxWorkerName bounds the hello payload: names are short routing
	// labels, and an unbounded name would make the hello bound vacuous.
	maxWorkerName = 4096
	// defaultMaxFrame bounds any fabric frame. Cell specs are small JSON
	// documents (a sim.Config plus identity strings), so 1 MiB is far
	// above any legal frame and far below hostile-length territory.
	defaultMaxFrame = 1 << 20
)

// fabBoundFor is the frame-size bound table: the maximum legal body
// size for each op. Both halves consult it — the coordinator rejects
// oversized requests before decoding, and the worker rejects oversized
// responses instead of trusting the peer. Variable-payload ops (cell
// specs, error messages) are bounded by the frame cap alone.
//
//ppflint:framebound
func fabBoundFor(op uint8, maxFrame int) int {
	switch op {
	case opFabHello:
		return 1 + lenFieldSize + maxWorkerName
	case opFabLease, opFabShutdown, opFabAck:
		return 1
	case opFabDone:
		return 1 + 8 + 1
	case opFabWelcome, opFabWait:
		return 1 + 8
	case opFabCell, opFabErr:
		return maxFrame
	}
	return maxFrame
}

// writeFrame emits one length-prefixed frame.
func writeFrame(w io.Writer, body []byte) error {
	var hdr [frameHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame body, bounding the announced length so a
// corrupt or hostile peer cannot make us allocate unbounded memory.
func readFrame(r *bufio.Reader, maxFrame int) ([]byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int(n) > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d > max %d", ErrFabTooLarge, n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// encodeFabBody builds an op-tagged frame body with the snapshot codec.
func encodeFabBody(op uint8, walk func(w *snap.Walker)) []byte {
	enc := snap.NewEncoder()
	enc.Uint8(&op)
	if walk != nil {
		walk(enc)
	}
	body, err := enc.Bytes()
	if err != nil {
		// Fabric walks write only fixed fields and bounded byte strings;
		// encoding cannot fail short of a codec bug.
		panic(err)
	}
	return body
}

// encodeHello builds the opening frame.
func encodeHello(name string) []byte {
	return encodeFabBody(opFabHello, func(w *snap.Walker) {
		writeBytesField(w, []byte(name))
	})
}

// encodeLease builds a work request.
func encodeLease() []byte { return encodeFabBody(opFabLease, nil) }

// encodeDone builds a completion report.
func encodeDone(leaseID uint64, ok bool) []byte {
	return encodeFabBody(opFabDone, func(w *snap.Walker) {
		w.Uint64(&leaseID)
		w.Bool(&ok)
	})
}

// encodeWelcome builds the hello response carrying the lease timeout.
func encodeWelcome(leaseMillis uint64) []byte {
	return encodeFabBody(opFabWelcome, func(w *snap.Walker) { w.Uint64(&leaseMillis) })
}

// encodeCell builds a lease grant.
func encodeCell(leaseID uint64, spec []byte) []byte {
	return encodeFabBody(opFabCell, func(w *snap.Walker) {
		w.Uint64(&leaseID)
		writeBytesField(w, spec)
	})
}

// encodeWait builds the nothing-to-lease response.
func encodeWait() []byte {
	var reserved uint64
	return encodeFabBody(opFabWait, func(w *snap.Walker) { w.Uint64(&reserved) })
}

// encodeShutdown builds the all-work-done response.
func encodeShutdown() []byte { return encodeFabBody(opFabShutdown, nil) }

// encodeAck builds the completion acknowledgement.
func encodeAck() []byte { return encodeFabBody(opFabAck, nil) }

// encodeFabError frames a typed error.
func encodeFabError(we *WireError) []byte {
	return encodeFabBody(opFabErr, func(w *snap.Walker) {
		c := uint8(we.Code)
		w.Uint8(&c)
		writeBytesField(w, []byte(we.Msg))
	})
}

// writeBytesField emits a Len-prefixed byte string.
func writeBytesField(w *snap.Walker, b []byte) {
	n := len(b)
	w.Len(&n)
	w.Uint8s(b)
}

// decodeBytesField reads a Len-prefixed byte string, capping the
// announced length at what the frame can actually hold.
func decodeBytesField(w *snap.Walker, remaining int) ([]byte, error) {
	var n int
	w.LenCapped(&n, remaining)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFabBadFrame, err)
	}
	b := make([]byte, n)
	w.Uint8s(b)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFabBadFrame, err)
	}
	return b, nil
}

// decodeFabError parses an opFabErr payload (op byte already consumed).
func decodeFabError(w *snap.Walker, frameLen int) error {
	var c uint8
	w.Uint8(&c)
	if err := w.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrFabBadFrame, err)
	}
	code, err := parseFabErrorCode(c)
	if err != nil {
		return err
	}
	msg, err := decodeBytesField(w, frameLen)
	if err != nil {
		return err
	}
	if err := w.Finish(); err != nil {
		return fmt.Errorf("%w: %w", ErrFabBadFrame, err)
	}
	return &WireError{Code: code, Msg: string(msg)}
}

// decodeUint64Body parses a single-uint64 payload (welcome, wait).
func decodeUint64Body(w *snap.Walker) (uint64, error) {
	var v uint64
	w.Uint64(&v)
	if err := w.Err(); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrFabBadFrame, err)
	}
	if err := w.Finish(); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrFabBadFrame, err)
	}
	return v, nil
}

// decodeCell parses an opFabCell payload.
func decodeCell(w *snap.Walker, frameLen int) (leaseID uint64, spec []byte, err error) {
	w.Uint64(&leaseID)
	if werr := w.Err(); werr != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrFabBadFrame, werr)
	}
	spec, err = decodeBytesField(w, frameLen)
	if err != nil {
		return 0, nil, err
	}
	if werr := w.Finish(); werr != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrFabBadFrame, werr)
	}
	return leaseID, spec, nil
}

// decodeDone parses an opFabDone payload.
func decodeDone(w *snap.Walker) (leaseID uint64, ok bool, err error) {
	w.Uint64(&leaseID)
	w.Bool(&ok)
	if werr := w.Err(); werr != nil {
		return 0, false, fmt.Errorf("%w: %w", ErrFabBadFrame, werr)
	}
	if werr := w.Finish(); werr != nil {
		return 0, false, fmt.Errorf("%w: %w", ErrFabBadFrame, werr)
	}
	return leaseID, ok, nil
}

// decodeHello parses an opFabHello payload into the worker name.
func decodeHello(w *snap.Walker, frameLen int) (string, error) {
	name, err := decodeBytesField(w, frameLen)
	if err != nil {
		return "", err
	}
	if len(name) > maxWorkerName {
		return "", fmt.Errorf("%w: worker name of %d bytes", ErrFabTooLarge, len(name))
	}
	if werr := w.Finish(); werr != nil {
		return "", fmt.Errorf("%w: %w", ErrFabBadFrame, werr)
	}
	return string(name), nil
}
