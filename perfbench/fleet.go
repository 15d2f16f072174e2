package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/simstore"
	"repro/internal/sweepfab"
	"repro/internal/workload"
)

// The sweep_fleet workload: a store server (simstore.Handler over a
// temporary directory), a coordinator at its defaults and fleetWorkers
// workers, all on loopback in this process. Each round runs a PPF τ grid
// cold through the fleet, then replays it warm from the published store,
// with fleetInFlight cells requested at a time.
const (
	fleetWorkers  = 2
	fleetInFlight = 2
	// fleetLeaseTimeout is the coordinator lease lifetime cmd/experiments
	// uses by default.
	fleetLeaseTimeout = 5 * time.Minute
	// fleetWaitHint is the coordinator's default idle-poll delay (the
	// coordinator is configured without one), used to convert idle polls
	// into worker time.
	fleetWaitHint = 50 * time.Millisecond
	// fleetConnectTimeout bounds the wait for workers to connect.
	fleetConnectTimeout = 10 * time.Second
	// fleetSetups is how many set-ups a run measures before each round.
	fleetSetups = 3
	// fleetTmp holds the store directories, inside the build directory.
	fleetTmp = ".bench_build"
)

// fleetBudget is small, so lease, publish and fetch weigh more than
// simulation in each cell.
var fleetBudget = experiment.Budget{Warmup: 1_000, Detail: 4_000}

type fleetCell struct {
	scheme experiment.Scheme
	w      workload.Workload
}

// fleetCells is the threshold sweep's cells over its five workloads: the
// no-prefetch baselines, then every (τ_hi, τ_lo) grid point per workload.
func fleetCells() []fleetCell {
	var ws []workload.Workload
	for _, n := range []string{"603.bwaves_s", "619.lbm_s", "605.mcf_s", "623.xalancbmk_s", "649.fotonik3d_s"} {
		ws = append(ws, workload.MustByName(n))
	}
	var cells []fleetCell
	for _, w := range ws {
		cells = append(cells, fleetCell{experiment.SchemeNone, w})
	}
	for _, tauHi := range []int{-12, -4, 4, 12} {
		for _, gap := range []int{8, 14, 22} {
			for _, w := range ws {
				cells = append(cells, fleetCell{experiment.PPFVariant(tauHi, tauHi-gap), w})
			}
		}
	}
	return cells
}

// timedStore records the duration of each store call it forwards, so
// the traced run can split a fleet cell into publish and fetch.
type timedStore struct {
	simstore.Backend
	mu                         sync.Mutex
	saveSnap, saveRes, loadHit []float64 // ms
	bytes                      int
}

func (t *timedStore) record(into *[]float64, start time.Time, n int) {
	d := ms(time.Since(start))
	t.mu.Lock()
	*into = append(*into, d)
	t.bytes += n
	t.mu.Unlock()
}

func (t *timedStore) SaveSnapshot(key string, payload []byte) error {
	start := time.Now()
	err := t.Backend.SaveSnapshot(key, payload)
	t.record(&t.saveSnap, start, len(payload))
	return err
}

func (t *timedStore) SaveResult(key string, payload []byte) error {
	start := time.Now()
	err := t.Backend.SaveResult(key, payload)
	t.record(&t.saveRes, start, len(payload))
	return err
}

func (t *timedStore) LoadResult(key string) ([]byte, bool) {
	start := time.Now()
	blob, ok := t.Backend.LoadResult(key)
	if ok {
		t.record(&t.loadHit, start, 0)
	}
	return blob, ok
}

// acceptWaiter closes ready once the coordinator has accepted the
// connections of all left workers: the fleet is then set up.
type acceptWaiter struct {
	net.Listener
	left  int // touched only by the coordinator's accept loop
	ready chan struct{}
}

func (l *acceptWaiter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.left--
		if l.left == 0 {
			close(l.ready)
		}
	}
	return c, err
}

// fleetRound is what one cold-then-warm round measured.
type fleetRound struct {
	cold, warm         []float64 // per-cell ms
	coldWall, warmWall time.Duration
	board              sweepfab.Counters
	workers            []sweepfab.WorkerStats
	hits, misses       uint64 // store lookups of every client, both kinds
}

// request asks for every cell through x with fleetInFlight requests
// outstanding, and returns each cell's result and time.
func request(x experiment.Exec, cells []fleetCell, seed uint64) ([]sim.Result, []float64, []error, time.Duration) {
	res := make([]sim.Result, len(cells))
	lat := make([]float64, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < fleetInFlight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
				t := time.Now()
				res[i], errs[i] = runSafely(x, cells[i], seed)
				lat[i] = ms(time.Since(t))
			}
		}()
	}
	wg.Wait()
	return res, lat, errs, time.Since(start)
}

// runSafely turns the experiment package's panic-on-failure into an
// error for one cell.
func runSafely(x experiment.Exec, c fleetCell, seed uint64) (r sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell %s/%s panicked: %v", c.scheme, c.w.Name, p)
		}
	}()
	return x.RunSingle(simConfig, c.scheme, c.w, seed, fleetBudget), nil
}

// fleet is a running store server, coordinator and workers.
type fleet struct {
	dir       string
	srv       *http.Server
	srvDone   chan error
	url       string
	rc        *experiment.RunCache // the coordinator's run cache
	coord     *sweepfab.Coordinator
	coordDone chan error
	wg        sync.WaitGroup
	workers   []sweepfab.WorkerStats
	errs      []error
	clients   []*simstore.Remote
	timers    *[]*timedStore // nil when the run is not traced
}

// startFleet brings a fleet up and returns it with its set-up time: from
// creating the store directory until the coordinator has accepted every
// worker's connection.
func startFleet(timers *[]*timedStore) (*fleet, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(fleetTmp, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(fleetTmp, "fleet-")
	if err != nil {
		return nil, 0, err
	}
	st, err := simstore.Open(dir)
	if err != nil {
		return nil, 0, errors.Join(err, os.RemoveAll(dir))
	}
	httpLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, os.RemoveAll(dir))
	}
	f := &fleet{
		dir:       dir,
		srv:       &http.Server{Handler: simstore.Handler(st)},
		srvDone:   make(chan error, 1),
		url:       "http://" + httpLis.Addr().String(),
		rc:        experiment.NewRunCache(),
		coordDone: make(chan error, 1),
		workers:   make([]sweepfab.WorkerStats, fleetWorkers),
		errs:      make([]error, fleetWorkers),
		timers:    timers,
	}
	go func() { f.srvDone <- f.srv.Serve(httpLis) }()
	f.rc.AttachStore(f.backend())
	f.coord = sweepfab.NewCoordinator(sweepfab.Config{Store: f.rc.Store(), LeaseTimeout: fleetLeaseTimeout})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.coordDone <- nil
		return nil, 0, errors.Join(err, f.stop())
	}
	fabLis := &acceptWaiter{Listener: lis, left: fleetWorkers, ready: make(chan struct{})}
	go func() { f.coordDone <- f.coord.Serve(fabLis) }()
	f.rc.SetCellRunner(f.coord.RunCell)
	for i := 0; i < fleetWorkers; i++ {
		wrc := experiment.NewRunCache()
		wrc.AttachStore(f.backend())
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			f.workers[i], f.errs[i] = sweepfab.RunWorker(lis.Addr().String(), sweepfab.WorkerConfig{
				Name: fmt.Sprintf("w%d", i),
				Exec: experiment.Exec{Cache: wrc},
			})
		}(i)
	}
	select {
	case <-fabLis.ready:
		return f, time.Since(start), nil
	case <-time.After(fleetConnectTimeout):
		return nil, 0, errors.Join(fmt.Errorf("fleet: workers not connected after %v", fleetConnectTimeout), f.stop())
	}
}

// backend returns a store client for one fleet member, wrapped in a
// timer when the run is traced.
func (f *fleet) backend() simstore.Backend {
	r := simstore.NewRemote(f.url, nil)
	f.clients = append(f.clients, r)
	if f.timers == nil {
		return r
	}
	t := &timedStore{Backend: r}
	*f.timers = append(*f.timers, t)
	return t
}

// stopWorkers closes the coordinator, which shuts the polling workers
// down, and waits for the workers and the accept loop to return.
func (f *fleet) stopWorkers() error {
	err := f.coord.Close()
	f.wg.Wait()
	return errors.Join(err, <-f.coordDone)
}

// stopStore closes the store server and removes its directory.
func (f *fleet) stopStore() error {
	err := f.srv.Close()
	if serr := <-f.srvDone; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(f.dir))
}

func (f *fleet) stop() error { return errors.Join(f.stopWorkers(), f.stopStore()) }

// runRound brings a fleet up, runs the cells cold through it, shuts the
// workers down, replays the cells warm from the store, and checks both
// against want.
func runRound(out *outcome, cells []fleetCell, want []string, seed uint64, timers *[]*timedStore) (fleetRound, error) {
	var fr fleetRound
	f, _, err := startFleet(timers)
	if err != nil {
		return fr, err
	}
	res, lat, errs, wall := request(experiment.Exec{Cache: f.rc}, cells, seed)
	fr.cold, fr.coldWall = lat, wall
	check(out, "cold", cells, res, errs, want)
	stopErr := f.stopWorkers()
	fr.board = f.coord.Board().Counters()
	fr.workers = f.workers
	unique := fr.board.Submitted - fr.board.Deduped
	if n := uint64(len(cells)); fr.board.Leases != n || fr.board.Completions != n || unique != n {
		out.failed += int(max(absDiff(fr.board.Leases, n), absDiff(fr.board.Completions, n), absDiff(unique, n)))
		out.problem("fleet: %d leases, %d completions, %d unique cells, want %d of each", fr.board.Leases, fr.board.Completions, unique, n)
	}
	for i, werr := range f.errs {
		if werr != nil {
			out.failed++
			out.problem("worker %d: %v", i, werr)
		}
		if f.workers[i].Failed != 0 {
			out.failed += int(f.workers[i].Failed)
			out.problem("worker %d: %d failed cell(s)", i, f.workers[i].Failed)
		}
	}

	warm := f.backend()
	warmRC := experiment.NewRunCache()
	warmRC.AttachStore(warm)
	res, lat, errs, wall = request(experiment.Exec{Cache: warmRC}, cells, seed)
	fr.warm, fr.warmWall = lat, wall
	check(out, "warm", cells, res, errs, want)
	if m := warm.Stats().ResultMisses; m != 0 {
		out.failed += int(m)
		out.problem("warm replay: %d result miss(es), want 0", m)
	}
	for _, c := range f.clients {
		s := c.Stats()
		fr.hits += s.ResultHits + s.SnapshotHits
		fr.misses += s.ResultMisses + s.SnapshotMisses
	}
	return fr, errors.Join(stopErr, f.stopStore())
}

// absDiff is |a-b|.
func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// check counts the requested cells and compares each result with the
// in-process reference.
func check(out *outcome, phase string, cells []fleetCell, res []sim.Result, errs []error, want []string) {
	for i := range cells {
		out.attempted++
		err := errs[i]
		var got string
		if err == nil {
			got, err = digest(res[i])
		}
		if err == nil && got != want[i] {
			err = fmt.Errorf("%s cell %s/%s: fleet result differs from the in-process Exec.RunSingle result", phase, cells[i].scheme, cells[i].w.Name)
		}
		if err != nil {
			out.failed++
			out.problem("%v", err)
		}
	}
}

func runFleet(opt options) (*outcome, error) {
	out := newOutcome()
	cells := fleetCells()
	// Oracle: every cell simulated in-process through a cache-less Exec.
	want := make([]string, len(cells))
	var simMS []float64
	for i, c := range cells {
		start := time.Now()
		r, err := runSafely(experiment.Exec{}, c, opt.seed)
		simMS = append(simMS, ms(time.Since(start)))
		if err == nil {
			want[i], err = digest(r)
		}
		if err != nil {
			return nil, err
		}
	}

	var rounds []fleetRound
	var timers []*timedStore
	timersIf := func() *[]*timedStore {
		if opt.trace {
			return &timers
		}
		return nil
	}
	// Peak RSS is read per round and the median round reported: the
	// whole run's peak rests on the one moment when snapshot uploads and
	// collections overlap, and three runs in twenty read 20-35% higher.
	var rss, setups []float64
	deadline := time.Now().Add(opt.duration)
	for len(rounds) == 0 || time.Now().Before(deadline) {
		// Set-up is timed before each round, so that it samples the host
		// over the whole run as the rounds do. A sub-millisecond time
		// needs more samples than a run has rounds, and a collection
		// running during the set-ups would time the collector.
		runtime.GC()
		for i := 0; i < fleetSetups; i++ {
			f, setup, err := startFleet(nil)
			if err != nil {
				return nil, err
			}
			if err := f.stop(); err != nil {
				return nil, err
			}
			setups = append(setups, setup.Seconds())
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		fr, err := runRound(out, cells, want, opt.seed, timersIf())
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		rounds = append(rounds, fr)
	}

	var cold, warm []float64
	coldBy := make([][]float64, len(cells)) // per cell, its times over the rounds
	warmBy := make([][]float64, len(cells))
	var coldWall, warmWall time.Duration
	var waits, stale, leases, requeues, hits, misses uint64
	for _, fr := range rounds {
		cold = append(cold, fr.cold...)
		for i := range cells {
			coldBy[i] = append(coldBy[i], fr.cold[i])
			warmBy[i] = append(warmBy[i], fr.warm[i])
		}
		warm = append(warm, fr.warm...)
		coldWall += fr.coldWall
		warmWall += fr.warmWall
		for _, ws := range fr.workers {
			waits += ws.Waits
			stale += ws.StaleLeases
		}
		leases += fr.board.Leases
		requeues += fr.board.Requeues
		hits += fr.hits
		misses += fr.misses
	}
	n := float64(len(rounds))
	workerTime := float64(fleetWorkers) * coldWall.Seconds()

	if opt.trace {
		var saveSnap, saveRes, loads []float64
		bytes := 0
		for _, t := range timers {
			saveSnap = append(saveSnap, t.saveSnap...)
			saveRes = append(saveRes, t.saveRes...)
			loads = append(loads, t.loadHit...)
			bytes += t.bytes
		}
		out.set("simstore.save_snapshot_ms_p50", median(saveSnap))
		out.set("simstore.save_result_ms_p50", median(saveRes))
		out.set("simstore.load_ms_p50", median(loads))
		out.set("simstore.bytes_saved", float64(bytes)/n)
		out.set("simstore.hits", float64(hits)/n)
		out.set("simstore.misses", float64(misses)/n)
		out.set("simstore.save_share", (sum(saveSnap)+sum(saveRes))/1e3/workerTime)
		out.set("sweepfab.sim_ms_per_cell", median(simMS))
		out.set("sweepfab.wait_share", float64(waits)*fleetWaitHint.Seconds()/workerTime)
		out.set("sweepfab.idle_polls", float64(waits)/n)
		out.set("sweepfab.leases", float64(leases)/n)
		out.set("sweepfab.requeues", float64(requeues))
		out.set("sweepfab.stale_leases", float64(stale))
		out.set("sweepfab.warm_cells_per_s", float64(len(warm))/warmWall.Seconds())
		out.line("per worker: save %.0f ms, idle polls %.0f ms, of %.0f ms cold (%d rounds)",
			(sum(saveSnap)+sum(saveRes))/fleetWorkers, float64(waits)*ms(fleetWaitHint)/fleetWorkers, ms(coldWall), len(rounds))
		return out, nil
	}
	out.line("cold_cells_per_s   %.3f /s (%d cells, %d rounds)", float64(len(cold))/coldWall.Seconds(), len(cold), len(rounds))
	out.line("warm_cells_per_s   %.3f /s (%d cells)", float64(len(warm))/warmWall.Seconds(), len(warm))
	// Each cell is timed as its median over the rounds. The rate stays
	// pooled: with cells in flight side by side, it does not follow
	// from their times.
	coldMed, warmMed := cellMedians(coldBy), cellMedians(warmBy)
	out.line("cell_ms_p50        %.3f ms cold, %.3f ms warm", quantile(coldMed, 0.5), quantile(warmMed, 0.5))
	out.line("cell_ms_p90        %.3f ms cold, %.3f ms warm", quantile(coldMed, 0.9), quantile(warmMed, 0.9))
	t := pooled(cold, coldWall)
	t.p50, t.p90 = quantile(coldMed, 0.5), quantile(coldMed, 0.9)
	t.basis = fmt.Sprintf("%d cold cells in %.2f s; times: %d cells, each the median of %d rounds", len(cold), coldWall.Seconds(), len(cells), len(rounds))
	out.endToEnd(setups, t, median(rss))
	return out, nil
}
