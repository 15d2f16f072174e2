package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/experiment"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The sim_* workloads run the 20 SPEC2017 synthetic workloads, one cell
// at a time (a closed loop with one client), single core, at the Quick
// budget: the cells every -quick figure sweeps.
var (
	simConfig = sim.DefaultConfig(1)
	simBudget = experiment.QuickBudget()
)

// goldenSeed is the seed the committed result digests were made with.
const goldenSeed = 1

// goldenFile holds, per scheme and workload, the SHA-256 of the
// sim.EncodeResult bytes of the cell's full result at goldenSeed.
//
//go:embed golden.json
var goldenFile []byte

type golden struct {
	Seed    uint64                       `json:"seed"`
	Budget  experiment.Budget            `json:"budget"`
	Digests map[string]map[string]string `json:"digests"`
}

// simCell is one measured cell: its result, its wall time, and for a
// traced cell the instructions the core pulled from its trace and the
// prefetcher wrapper's timings.
type simCell struct {
	res   sim.Result
	dur   time.Duration
	insts uint64
	pf    *tracedPrefetcher
}

// runCell simulates one workload under scheme, timing the cell from
// asking for its result to holding it: NewSetup, sim.NewSystem and
// System.Run. A traced cell wraps the trace reader with an instruction
// counter and the prefetcher with call and sink timers.
func runCell(scheme experiment.Scheme, w workload.Workload, seed uint64, traced bool) (c simCell, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %s/%s panicked: %v", scheme, w.Name, r)
		}
	}()
	start := time.Now()
	setup := experiment.NewSetup(scheme, w, seed)
	var counter *countingReader
	if traced {
		counter = &countingReader{r: setup.Trace}
		setup.Trace = counter
		if setup.Prefetcher != nil {
			bp, ok := setup.Prefetcher.(prefetch.BatchProducer)
			if !ok {
				return c, fmt.Errorf("scheme %s: prefetcher %s is not a BatchProducer", scheme, setup.Prefetcher.Name())
			}
			c.pf = newTracedPrefetcher(bp)
			setup.Prefetcher = c.pf
		}
	}
	sys, err := sim.NewSystem(simConfig, []sim.CoreSetup{setup})
	if err != nil {
		return c, err
	}
	c.res = sys.Run(simBudget.Warmup, simBudget.Detail)
	if c.pf != nil {
		c.pf.restoreDepth(&c.res)
	}
	c.dur = time.Since(start)
	if counter != nil {
		c.insts = counter.n
	}
	return c, nil
}

// timeSetups times building one cell's machine (NewSetup and
// sim.NewSystem) once for every workload and returns the builds in
// seconds. Each build follows a collection, with the collector otherwise
// off, so the pages the last machine freed stay mapped for the next one.
// With the collector on, the runtime may return them to the OS, and in
// trials the median build then took twice as long in some processes as
// in others.
func timeSetups(scheme experiment.Scheme, ws []workload.Workload, seed uint64) ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var setups []float64
	for _, w := range ws {
		runtime.GC()
		start := time.Now()
		setup := experiment.NewSetup(scheme, w, seed)
		if _, err := sim.NewSystem(simConfig, []sim.CoreSetup{setup}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return setups, nil
}

// digest is the hex SHA-256 of a result's canonical encoding.
func digest(r sim.Result) (string, error) {
	blob, err := sim.EncodeResult(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// countingReader counts the instructions the core pulls from a trace,
// so the traced run can time generating the same count in bulk.
type countingReader struct {
	r trace.Reader
	n uint64
}

func (c *countingReader) Next() (trace.Inst, bool) {
	in, ok := c.r.Next()
	if ok {
		c.n++
	}
	return in, ok
}

// drainTrace times generating n instructions of w's stream from a fresh,
// identical reader. Timing each Next inside the cell would cost more
// than the generation it measures.
func drainTrace(w workload.Workload, seed, n uint64) time.Duration {
	r := w.NewReader(seed)
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	return time.Since(start)
}

// tracedPrefetcher times a BatchProducer from outside. It stays a
// BatchProducer, so the core keeps its burst path: OnDemandBatch times
// the prefetcher call, and the sink it passes down times the core's
// BatchSink (the PPF decide/record and the L2 prefetch insert) nested
// inside that call.
type tracedPrefetcher struct {
	prefetch.BatchProducer
	coreSink prefetch.BatchSink
	sinkFn   prefetch.BatchSink

	calls, candidates, accepted uint64
	callTime, sinkTime          time.Duration
}

func newTracedPrefetcher(bp prefetch.BatchProducer) *tracedPrefetcher {
	p := &tracedPrefetcher{BatchProducer: bp}
	p.sinkFn = p.sink
	return p
}

func (p *tracedPrefetcher) OnDemandBatch(a prefetch.Access, sink prefetch.BatchSink) {
	p.coreSink = sink
	start := time.Now()
	p.BatchProducer.OnDemandBatch(a, p.sinkFn)
	p.callTime += time.Since(start)
	p.calls++
}

func (p *tracedPrefetcher) sink(cands []prefetch.Candidate, accepted []bool) {
	start := time.Now()
	p.coreSink(cands, accepted)
	p.sinkTime += time.Since(start)
	p.candidates += uint64(len(cands))
	for _, ok := range accepted[:len(cands)] {
		if ok {
			p.accepted++
		}
	}
}

// restoreDepth fills in the field RunDetail could not: the wrapper hides
// *prefetch.SPP from its type assertion, so AvgLookaheadDepth is read
// from the wrapped SPP here, at the same point RunDetail reads it.
func (p *tracedPrefetcher) restoreDepth(r *sim.Result) {
	if spp, ok := p.BatchProducer.(*prefetch.SPP); ok {
		r.PerCore[0].AvgLookaheadDepth = spp.AverageDepth()
	}
}

// ledger splits one traced cell's wall time into layers. The prefetcher's
// self time excludes the sink nested in it; the residual is the core
// tick, caches, DRAM and branch predictor, plus whatever the spans miss.
type ledger struct {
	cell, trace, pfSelf, sink, residual time.Duration
}

func newLedger(c simCell, traceTime time.Duration) ledger {
	l := ledger{cell: c.dur, trace: traceTime}
	if c.pf != nil {
		l.pfSelf = c.pf.callTime - c.pf.sinkTime
		l.sink = c.pf.sinkTime
	}
	l.residual = l.cell - l.trace - l.pfSelf - l.sink
	return l
}

func runSim(opt options, scheme experiment.Scheme) (*outcome, error) {
	out := newOutcome()
	ws := workload.SPEC2017()

	// The reference pass warms the process and fixes each cell's
	// expected digest; every later pass, traced or not, must repeat it.
	want := make([]string, len(ws))
	ref := make([]sim.Result, len(ws))
	for i, w := range ws {
		out.attempted++
		c, err := runCell(scheme, w, opt.seed, false)
		if err == nil {
			want[i], err = digest(c.res)
		}
		if err != nil {
			out.failed++
			out.problem("%v", err)
			continue
		}
		ref[i] = c.res
	}
	if opt.seed == goldenSeed {
		checkGolden(out, scheme, ws, want)
	}

	lat := make([][]float64, len(ws)) // per workload, untraced cell times, ms
	var setups []float64
	var untracedTime, tracedTime time.Duration
	var untracedCycles uint64
	var ledgers []ledger
	var pfCalls, cands, accepted, insts uint64
	var tracedPasses, untracedPasses int
	deadline := time.Now().Add(opt.duration)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		traced := opt.trace && pass%2 == 0
		if traced {
			tracedPasses++
		} else {
			untracedPasses++
		}
		for i, w := range ws {
			out.attempted++
			c, err := runCell(scheme, w, opt.seed, traced)
			var got string
			if err == nil {
				got, err = digest(c.res)
			}
			if err == nil && got != want[i] {
				err = fmt.Errorf("cell %s/%s: result digest %s differs from the reference pass's %q (traced=%v)", scheme, w.Name, got, want[i], traced)
			}
			if err != nil {
				out.failed++
				out.problem("%v", err)
				continue
			}
			if !traced {
				lat[i] = append(lat[i], ms(c.dur))
				untracedTime += c.dur
				untracedCycles += c.res.Cycles
				continue
			}
			tracedTime += c.dur
			l := newLedger(c, drainTrace(w, opt.seed, c.insts))
			if l.residual < 0 {
				out.line("over-attribution: %s layers sum to %v, more than the cell's %v", w.Name, l.cell-l.residual, l.cell)
			}
			ledgers = append(ledgers, l)
			insts += c.insts
			if c.pf != nil {
				pfCalls += c.pf.calls
				cands += c.pf.candidates
				accepted += c.pf.accepted
			}
		}
		// Set-up is timed between the passes, so that it samples the
		// host over the whole run as the cells do.
		if !opt.trace {
			s, err := timeSetups(scheme, ws, opt.seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s...)
		}
	}

	if !opt.trace {
		t := cellTiming(lat, untracedPasses)
		perCell := simBudget.Warmup + simBudget.Detail
		out.line("sim_minstr_per_s   %.4f Minstr/s (%d instructions per cell)", t.rate*float64(perCell)/1e6, perCell)
		out.line("cell_ms_p50        %.3f ms", t.p50)
		out.line("cell_ms_p90        %.3f ms", t.p90)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.endToEnd(setups, t, rss)
		return out, nil
	}
	reportSimLayers(out, ref, ledgers, tracedPasses, pfCalls, cands, accepted, insts)
	out.set("sim.trace_overhead_share", ratio(tracedTime.Seconds()/float64(tracedPasses), untracedTime.Seconds()/float64(untracedPasses))-1)
	out.set("sim.host_ns_per_sim_cycle", ratio(float64(untracedTime.Nanoseconds()), float64(untracedCycles)))
	return out, nil
}

// cellTiming is the timing of a sweep's cells, each cell timed as the
// median of its passes: the rate at which one pass runs at those times,
// and their percentiles over the cells.
func cellTiming(lat [][]float64, passes int) timing {
	cell := cellMedians(lat)
	return timing{
		rate:  float64(len(cell)) * 1e3 / sum(cell),
		p50:   quantile(cell, 0.5),
		p90:   quantile(cell, 0.9),
		basis: fmt.Sprintf("%d cells, each the median of %d passes", len(cell), passes),
	}
}

// reportSimLayers records the per-layer metrics of a traced sim_* run:
// the ledger shares over every traced cell, the wrapper counts per pass,
// and the simulated counts of one pass (the detail region of each of the
// 20 cells), which repeat exactly for a given seed.
func reportSimLayers(out *outcome, ref []sim.Result, ledgers []ledger, passes int, pfCalls, cands, accepted, insts uint64) {
	var cell, tr, pfSelf, sink, resid time.Duration
	over := 0
	for _, l := range ledgers {
		cell += l.cell
		tr += l.trace
		pfSelf += l.pfSelf
		sink += l.sink
		resid += l.residual
		if l.residual < 0 {
			over++
		}
	}
	c := float64(cell)
	out.set("trace.ns_per_inst", ratio(float64(tr), float64(insts)))
	out.set("trace.share", ratio(float64(tr), c))
	out.set("prefetch.calls", float64(pfCalls)/float64(passes))
	out.set("prefetch.self_ns_per_call", ratio(float64(pfSelf), float64(pfCalls)))
	out.set("prefetch.share", ratio(float64(pfSelf), c))
	out.set("sink.candidates", float64(cands)/float64(passes))
	out.set("sink.accepted", float64(accepted)/float64(passes))
	out.set("sink.accept_ratio", ratio(float64(accepted), float64(cands)))
	out.set("sink.ns_per_candidate", ratio(float64(sink), float64(cands)))
	out.set("sink.share", ratio(float64(sink), c))
	out.set("sim.residual_share", ratio(float64(resid), c))
	out.set("sim.over_attributed_cells", float64(over))
	out.line("ledger over %d traced cells (%d passes): cell %.1f ms = trace %.1f + prefetch %.1f + sink %.1f + residual %.1f",
		len(ledgers), passes, ms(cell), ms(tr), ms(pfSelf), ms(sink), ms(resid))

	var l2, llcMiss, reads, useful, issued, cycles uint64
	for _, r := range ref {
		for _, pc := range r.PerCore {
			l2 += pc.L2.DemandAccesses
			useful += pc.PrefetchesUseful
			issued += pc.PrefetchesIssued
		}
		llcMiss += r.LLC.DemandMisses
		reads += r.DRAM.Reads
		cycles += r.Cycles
	}
	out.set("cache.l2_demand_accesses", float64(l2))
	out.set("cache.llc_demand_misses", float64(llcMiss))
	out.set("dram.reads", float64(reads))
	out.set("prefetch.accuracy", ratio(float64(useful), float64(issued)))
	out.set("sim.cycles", float64(cycles))
}

// checkGolden compares the reference pass against the committed digests.
func checkGolden(out *outcome, scheme experiment.Scheme, ws []workload.Workload, got []string) {
	var g golden
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		out.problem("golden.json: %v", err)
		return
	}
	if g.Seed != goldenSeed || g.Budget != simBudget {
		out.problem("golden.json was made with seed %d budget %+v, not seed %d budget %+v", g.Seed, g.Budget, goldenSeed, simBudget)
		return
	}
	for i, w := range ws {
		if want := g.Digests[string(scheme)][w.Name]; got[i] != want {
			out.failed++
			out.problem("cell %s/%s at seed %d: digest %q, golden %q", scheme, w.Name, goldenSeed, got[i], want)
		}
	}
}

// regenerateGolden writes golden.json for both sim_* schemes. Run it
// only when a change is meant to alter simulated results.
func regenerateGolden(path string) error {
	g := golden{Seed: goldenSeed, Budget: simBudget, Digests: map[string]map[string]string{}}
	for _, scheme := range []experiment.Scheme{experiment.SchemePPF, experiment.SchemeNone} {
		g.Digests[string(scheme)] = map[string]string{}
		for _, w := range workload.SPEC2017() {
			c, err := runCell(scheme, w, goldenSeed, false)
			if err != nil {
				return err
			}
			d, err := digest(c.res)
			if err != nil {
				return err
			}
			g.Digests[string(scheme)][w.Name] = d
		}
	}
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
