package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
)

// The serve_loop workload: an in-process ppfd server on loopback and
// serveStreams closed-loop client streams, each sending serveBatch-event
// batches and waiting for the decisions before sending the next.
const (
	serveStreams = 2
	serveBatch   = 512
	// servePool is how many distinct batches each stream cycles through.
	servePool = 64
	// serveWarmup is the untimed start of the window: its batches are
	// sent and checked, but their round trips are not measured.
	serveWarmup = 500 * time.Millisecond
	serveSetups = 15
)

// The events are synthetic: eventGen is a copy of the load-test event
// generator behind ppfd -loadtest (internal/serve/loadtest.go, not
// exported), with the same splitmix64 stream, the same four fixed PCs and
// the same 1/2/1/6 load-PC/demand/evict/candidate mix over a 1 MiB block
// range. It is not drawn from the simulator's filter traffic; the run
// reports the event shares it measured in its batches.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

type eventGen struct {
	r   rng
	pcs [4]uint64
}

func newEventGen(seed uint64) *eventGen {
	return &eventGen{r: rng{s: seed}, pcs: [4]uint64{0x400100, 0x400200, 0x400300, 0x401000}}
}

// fill overwrites events with the next len(events) of the stream.
func (g *eventGen) fill(events []engine.Event) {
	r := &g.r
	for i := range events {
		switch r.intn(10) {
		case 0:
			events[i] = engine.LoadPC(g.pcs[r.intn(len(g.pcs))])
		case 1, 2:
			events[i] = engine.Demand(uint64(r.intn(1<<14)) << 6)
		case 3:
			events[i] = engine.Evict(uint64(r.intn(1<<14))<<6, r.intn(2) == 0)
		default:
			events[i] = engine.Candidate(core.FeatureInput{
				Addr:       uint64(r.intn(1<<14)) << 6,
				PC:         g.pcs[r.intn(len(g.pcs))],
				PCHist:     core.PCHistory{g.pcs[0], g.pcs[1], g.pcs[2]},
				Depth:      1 + r.intn(8),
				Signature:  uint16(r.intn(1 << 12)),
				Confidence: r.intn(101),
				Delta:      r.intn(17) - 8,
			})
		}
	}
}

// serveBatches cuts the first servePool batches of one stream's event
// sequence. As in the load test, stream i of a run seeded s uses
// generator seed s+i; the run's seed is spread first so that runs with
// adjacent seeds share no stream.
func serveBatches(seed uint64, stream int) [][]engine.Event {
	g := newEventGen(seed*0x9E3779B97F4A7C15 + uint64(stream))
	batches := make([][]engine.Event, servePool)
	for b := range batches {
		batches[b] = make([]engine.Event, serveBatch)
		g.fill(batches[b])
	}
	return batches
}

// eventShares reports the share of each event kind in the batches.
func eventShares(pools [][][]engine.Event) string {
	counts := map[engine.Kind]int{}
	total := 0
	for _, pool := range pools {
		for _, batch := range pool {
			for _, ev := range batch {
				counts[ev.Kind]++
				total++
			}
		}
	}
	var parts []string
	for _, k := range []engine.Kind{engine.KindCandidate, engine.KindDemand, engine.KindEvict, engine.KindLoadPC} {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*float64(counts[k])/float64(total)))
	}
	return strings.Join(parts, ", ")
}

// serveRig is a running server with one connected client per
// stream.
type serveRig struct {
	srv     *serve.Server
	done    chan error
	clients []*serve.Client
}

// startServe starts a server on a loopback port and connects the
// clients, each leasing its own session.
func startServe() (*serveRig, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{srv: serve.NewServer(serve.Config{}), done: make(chan error, 1)}
	go func() { rig.done <- rig.srv.Serve(lis) }()
	for i := 0; i < serveStreams; i++ {
		c, err := serve.Dial(lis.Addr().String(), fmt.Sprintf("stream-%d", i))
		if err != nil {
			rig.stop()
			return nil, err
		}
		rig.clients = append(rig.clients, c)
	}
	return rig, nil
}

// stop closes the clients and the server and waits for the serve loop.
func (r *serveRig) stop() error {
	for _, c := range r.clients {
		c.Close()
	}
	err := r.srv.Close()
	// Serve returns its listener's accept error once Close shuts it.
	if serr := <-r.done; !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// streamLog is what one client stream saw.
type streamLog struct {
	batches   int       // batches answered, warm-up included
	decisions int       // decisions received in the measured window
	rtt       []float64 // measured round trips, ms
	sums      []uint64  // per answered batch, the FNV-1a hash of its decisions
	err       error     // the error that ended the stream early, if any
}

func runServe(opt options) (*outcome, error) {
	out := newOutcome()
	pools := make([][][]engine.Event, serveStreams)
	for i := range pools {
		pools[i] = serveBatches(opt.seed, i)
	}
	// A collection running during the set-ups would time the collector.
	runtime.GC()
	var setups []float64
	var rig *serveRig
	for i := 0; i < serveSetups; i++ {
		start := time.Now()
		r, err := startServe()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < serveSetups-1 {
			if err := r.stop(); err != nil {
				return nil, err
			}
			continue
		}
		rig = r
	}

	logs := make([]streamLog, serveStreams)
	var wg sync.WaitGroup
	measureFrom := time.Now().Add(serveWarmup)
	deadline := measureFrom.Add(opt.duration)
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = driveStream(rig.clients[i], pools[i], measureFrom, deadline)
		}(i)
	}
	wg.Wait()
	window := time.Since(measureFrom)
	sheds := rig.srv.Sheds()
	if err := rig.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}

	// Oracle: the same batches through a local engine session must give
	// bit-identical decisions, batch by batch. The replay also times the
	// filter alone.
	var rtt []float64
	var applyMS []float64
	decisions, events := 0, 0
	for i, l := range logs {
		out.attempted += l.batches
		if l.err != nil {
			out.attempted++
			out.failed++
			out.problem("stream %d: batch %d: %v", i, l.batches, l.err)
		}
		local := engine.New(core.DefaultConfig())
		buf := make([]core.Decision, 0, serveBatch)
		var raw []byte
		differ := 0
		for b := 0; b < l.batches; b++ {
			batch := pools[i][b%servePool]
			start := time.Now()
			buf = local.ApplyBatch(batch, buf[:0])
			applyMS = append(applyMS, ms(time.Since(start)))
			raw = appendDecisions(raw[:0], buf)
			if hashDecisions(raw) != l.sums[b] {
				differ++
			}
			events += len(batch)
		}
		if differ > 0 {
			out.failed += differ
			out.problem("stream %d: %d of %d served batches differ from a local ApplyBatch over the same events", i, differ, l.batches)
		}
		rtt = append(rtt, l.rtt...)
		decisions += l.decisions
	}
	if sheds != 0 {
		out.failed += int(sheds)
		out.problem("server shed %d client(s)", sheds)
	}

	if opt.trace {
		out.set("engine.ns_per_event", ratio(sum(applyMS)*1e6, float64(events)))
		out.set("serve.overhead_us_per_batch", (median(rtt)-median(applyMS))*1e3)
		out.set("serve.batches", float64(len(rtt)))
		out.set("serve.sheds", float64(sheds))
		out.set("serve.batch_rtt_us_p99", quantile(rtt, 0.99)*1e3)
		return out, nil
	}
	out.line("events             %s (synthetic, ppfd -loadtest mix)", eventShares(pools))
	out.line("decisions_per_s    %.0f /s (%d decisions in %.2f s)", float64(decisions)/window.Seconds(), decisions, window.Seconds())
	out.line("batch_rtt_us_p50   %.2f us (all %d batches)", quantile(rtt, 0.5)*1e3, len(rtt))
	out.line("batch_rtt_us_p99   %.2f us (all %d batches)", quantile(rtt, 0.99)*1e3, len(rtt))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.endToEnd(setups, pooled(rtt, window), rss)
	return out, nil
}

// driveStream sends one stream's batches in a closed loop until the
// deadline, timing the round trips that start after measureFrom.
func driveStream(c *serve.Client, pool [][]engine.Event, measureFrom, deadline time.Time) streamLog {
	var l streamLog
	var raw []byte
	for {
		start := time.Now()
		if !start.Before(deadline) {
			return l
		}
		batch := pool[l.batches%servePool]
		ds, err := c.Decide(batch)
		if err != nil {
			l.err = err
			return l
		}
		rtt := time.Since(start)
		l.batches++
		raw = appendDecisions(raw[:0], ds)
		l.sums = append(l.sums, hashDecisions(raw))
		if !start.Before(measureFrom) {
			l.decisions += len(ds)
			l.rtt = append(l.rtt, ms(rtt))
		}
	}
}

// appendDecisions appends decisions to b as bytes, for hashing.
func appendDecisions(b []byte, ds []core.Decision) []byte {
	for _, d := range ds {
		b = append(b, byte(d))
	}
	return b
}

// hashDecisions is the 64-bit FNV-1a hash of a batch's decision bytes.
func hashDecisions(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}
