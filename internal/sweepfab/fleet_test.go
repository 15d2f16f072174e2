package sweepfab

import (
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/simstore"
	"repro/internal/workload"
)

// fleetBudget keeps the end-to-end fleet goldens fast: the comparison
// is about plumbing (keys, leases, store round trips), not simulated
// fidelity, so the cells are tiny.
var fleetBudget = experiment.Budget{Warmup: 1_000, Detail: 4_000}

// fleetRun spins a store server, a coordinator and n workers on
// loopback, runs the threshold sweep through the fabric, and returns
// the rendered table plus the board counters and per-worker stats.
func fleetRun(t *testing.T, n int) (render string, counters Counters, workers []WorkerStats) {
	t.Helper()
	serverStore, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(simstore.Handler(serverStore))
	defer httpSrv.Close()

	coord := NewCoordinator(Config{
		Store:        simstore.NewRemote(httpSrv.URL, nil),
		LeaseTimeout: time.Minute,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)

	workers = make([]WorkerStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc := experiment.NewRunCache()
			rc.AttachStore(simstore.NewRemote(httpSrv.URL, nil))
			workers[i], errs[i] = RunWorker(lis.Addr().String(), WorkerConfig{
				Name: fmt.Sprintf("w%d", i),
				Exec: experiment.Exec{Cache: rc},
			})
		}(i)
	}

	rc := experiment.NewRunCache()
	coord.AttachTo(rc)
	res := experiment.ThresholdSweep(experiment.Exec{Workers: 4, Cache: rc}, fleetBudget)
	render = res.Render()
	counters = coord.Board().Counters()
	coord.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return render, counters, workers
}

// TestFleetByteIdentical is the tentpole acceptance golden: the
// threshold sweep rendered through a coordinator and 1, 2 or 4 workers
// is byte-identical to the single-process run, every cold cell
// simulates exactly once fleet-wide, and the counters prove it.
func TestFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet golden runs ~200 tiny cells")
	}
	local := experiment.ThresholdSweep(experiment.Exec{Workers: 4}, fleetBudget).Render()
	for _, n := range []int{1, 2, 4} {
		render, counters, workers := fleetRun(t, n)
		if render != local {
			t.Fatalf("%d-worker fleet render diverged from local run\nlocal:\n%s\nfleet:\n%s", n, local, render)
		}
		unique := counters.Submitted - counters.Deduped
		if unique == 0 {
			t.Fatalf("%d workers: no cells flowed through the fabric", n)
		}
		if counters.Completions != unique {
			t.Fatalf("%d workers: %d completions for %d unique cells", n, counters.Completions, unique)
		}
		if counters.Requeues != 0 || counters.Expirations != 0 || counters.Reopens != 0 || counters.Failures != 0 {
			t.Fatalf("%d workers: unclean counters %+v", n, counters)
		}
		// Exactly-once across the fleet: the workers' lease counts sum to
		// the unique cell count — no cell ran twice anywhere.
		var ran uint64
		for _, ws := range workers {
			ran += ws.Cells
		}
		if ran != unique {
			t.Fatalf("%d workers: fleet ran %d cells for %d unique keys", n, ran, unique)
		}
	}
}

// TestFleetWarmReplay: after a fleet run, a fresh single-process cache
// over the same store directory replays the sweep byte-identically with
// zero simulations (every cell is a store hit).
func TestFleetWarmReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet golden runs ~130 tiny cells")
	}
	serverStore, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(simstore.Handler(serverStore))
	defer httpSrv.Close()

	coord := NewCoordinator(Config{
		Store:        simstore.NewRemote(httpSrv.URL, nil),
		LeaseTimeout: time.Minute,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := experiment.NewRunCache()
		rc.AttachStore(simstore.NewRemote(httpSrv.URL, nil))
		RunWorker(lis.Addr().String(), WorkerConfig{Name: "w0", Exec: experiment.Exec{Cache: rc}})
	}()
	rc := experiment.NewRunCache()
	coord.AttachTo(rc)
	fleet := experiment.ThresholdSweep(experiment.Exec{Workers: 4, Cache: rc}, fleetBudget).Render()
	coord.Close()
	wg.Wait()

	// Warm replay: no fabric, no workers — just the published store.
	warm := experiment.NewRunCache()
	warm.AttachStore(simstore.NewRemote(httpSrv.URL, nil))
	replay := experiment.ThresholdSweep(experiment.Exec{Workers: 4, Cache: warm}, fleetBudget).Render()
	if replay != fleet {
		t.Fatal("warm replay over the published store diverged from the fleet run")
	}
	st := warm.Store().Stats()
	if st.ResultMisses != 0 {
		t.Fatalf("warm replay re-simulated: %+v", st)
	}
}

// TestFleetCrashRerunsOnce: a worker that leases a cell and dies
// mid-flight triggers a requeue; the surviving worker re-runs the cell
// exactly once and the sweep completes with correct output.
func TestFleetCrashRerunsOnce(t *testing.T) {
	serverStore, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(simstore.Handler(serverStore))
	defer httpSrv.Close()
	coord := NewCoordinator(Config{
		Store:        simstore.NewRemote(httpSrv.URL, nil),
		LeaseTimeout: time.Minute,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)
	defer coord.Close()

	// The victim cell, submitted through the coordinator's own hook so
	// the test observes the same path experiments use.
	spec := experiment.NewCellSpec(sim.DefaultConfig(1), experiment.SchemeSPP,
		workload.MustByName("641.leela_s"), 1, fleetBudget)

	// Crash worker: leases the cell, then drops the connection without
	// completing or publishing.
	crash := dialRaw(t, lis.Addr().String())
	crash.send(encodeHello("crash"))
	crash.recvOp()

	resultCh := make(chan sim.Result, 1)
	go func() { resultCh <- coord.RunCell(spec) }()

	// The crash worker's lease blocks until RunCell submits the cell.
	crash.send(encodeLease())
	if op := crash.recvOp(); op != opFabCell {
		t.Fatalf("crash worker's lease answered op 0x%02x, want opFabCell", op)
	}
	crash.conn.Close()

	// A healthy worker joins and rescues the cell.
	var wg sync.WaitGroup
	var stats WorkerStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := experiment.NewRunCache()
		rc.AttachStore(simstore.NewRemote(httpSrv.URL, nil))
		stats, _ = RunWorker(lis.Addr().String(), WorkerConfig{Name: "rescue", Exec: experiment.Exec{Cache: rc}})
	}()

	r := <-resultCh
	if r.PerCore[0].IPC <= 0 {
		t.Fatalf("rescued cell returned a bogus result: %+v", r.PerCore[0])
	}
	// Cross-check against a direct local run of the same cell.
	w, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	localR, err := experiment.RunSingle(spec.Config, spec.Scheme, w, spec.Seed, spec.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerCore[0].IPC != localR.PerCore[0].IPC {
		t.Fatalf("rescued IPC %v != local IPC %v", r.PerCore[0].IPC, localR.PerCore[0].IPC)
	}
	coord.Close()
	wg.Wait()
	c := coord.Board().Counters()
	if c.Disconnects != 1 || c.Requeues != 1 || c.Completions != 1 {
		t.Fatalf("counters = %+v (want exactly one disconnect-requeue-completion)", c)
	}
	if stats.Cells != 1 {
		t.Fatalf("rescue worker ran %d cells, want 1 (the re-run, exactly once)", stats.Cells)
	}
}

// TestFleetDeadWaiterLosesNothing: a worker whose connection dies while
// its lease request is blocked on an empty queue cannot swallow a cell.
// Its handler only notices the dead peer when it writes the next reply;
// if that reply is a cell, the failed connection requeues it, and the
// cell runs exactly once, on a live worker.
func TestFleetDeadWaiterLosesNothing(t *testing.T) {
	serverStore, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(simstore.Handler(serverStore))
	defer httpSrv.Close()
	coord := NewCoordinator(Config{Store: simstore.NewRemote(httpSrv.URL, nil), LeaseTimeout: time.Minute})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(lis)
	defer coord.Close()

	dead := dialRaw(t, lis.Addr().String())
	dead.send(encodeHello("dead"))
	dead.recvOp()
	dead.send(encodeLease())
	dead.conn.Close()

	spec := experiment.NewCellSpec(sim.DefaultConfig(1), experiment.SchemeSPP,
		workload.MustByName("641.leela_s"), 1, fleetBudget)
	resultCh := make(chan sim.Result, 1)
	go func() { resultCh <- coord.RunCell(spec) }()

	// The dead connection's handler is the only waiter: it leases the
	// cell, fails on the connection, and releases it.
	deadline := time.Now().Add(5 * time.Second) //ppflint:allow determinism test retry deadline
	for coord.Board().Counters().Disconnects == 0 {
		if time.Now().After(deadline) { //ppflint:allow determinism test retry deadline
			t.Fatalf("dead waiter never released its lease: %+v", coord.Board().Counters())
		}
		time.Sleep(2 * time.Millisecond)
	}

	var wg sync.WaitGroup
	var stats WorkerStats
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := experiment.NewRunCache()
		rc.AttachStore(simstore.NewRemote(httpSrv.URL, nil))
		stats, werr = RunWorker(lis.Addr().String(), WorkerConfig{Name: "live", Exec: experiment.Exec{Cache: rc}})
	}()
	r := <-resultCh
	w, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.RunSingle(spec.Config, spec.Scheme, w, spec.Seed, spec.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("fleet result %+v differs from local run %+v", r.PerCore[0], want.PerCore[0])
	}
	coord.Close()
	wg.Wait()
	if werr != nil {
		t.Fatalf("live worker: %v", werr)
	}
	c := coord.Board().Counters()
	if c.Leases != 2 || c.Disconnects != 1 || c.Requeues != 1 || c.Completions != 1 {
		t.Fatalf("counters = %+v (want the dead lease requeued once, one completion)", c)
	}
	if stats.Cells != 1 {
		t.Fatalf("live worker ran %d cells, want 1", stats.Cells)
	}
}

// TestFleetCorruptPublishReopens: the coordinator re-runs a cell whose
// published entry is corrupt, and the second publish heals it.
func TestFleetCorruptPublishReopens(t *testing.T) {
	st, err := simstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Config{Store: st, LeaseTimeout: time.Minute})
	defer coord.Close()
	spec := experiment.NewCellSpec(sim.DefaultConfig(1), experiment.SchemeNone,
		workload.MustByName("641.leela_s"), 1, fleetBudget)

	// Board-level fake worker: the first completion lies (publishes
	// nothing), the second simulates and publishes for real.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		completions := 0
		deadline := time.Now().Add(30 * time.Second)         //ppflint:allow determinism test retry deadline
		for completions < 2 && !time.Now().After(deadline) { //ppflint:allow determinism test retry deadline
			id, specBytes, ok := coord.Board().Lease("faker", time.Now()) //ppflint:allow determinism lease stamp in test plumbing
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			if completions == 1 {
				// Second attempt: behave like a real worker.
				cs, err := experiment.DecodeCellSpec(specBytes)
				if err != nil {
					panic(err)
				}
				rc := experiment.NewRunCache()
				rc.AttachStore(st)
				if _, err := cs.Run(experiment.Exec{Cache: rc}); err != nil {
					panic(err)
				}
			}
			coord.Board().Complete(id, true)
			completions++
		}
	}()

	r := coord.RunCell(spec)
	wg.Wait()
	if r.PerCore[0].IPC <= 0 {
		t.Fatalf("reopened cell returned a bogus result: %+v", r.PerCore[0])
	}
	if c := coord.Board().Counters(); c.Reopens != 1 || c.Completions != 2 {
		t.Fatalf("counters = %+v (want one reopen, two completions)", c)
	}
}
