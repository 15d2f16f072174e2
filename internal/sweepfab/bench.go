package sweepfab

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/simstore"
	"repro/internal/stats"
)

// benchEnumWorkers is the coordinator-side enumeration parallelism: how
// many cells the sweep keeps in flight on the lease board. It must be
// at least the largest fleet size or the workers starve on the board
// rather than on their own CPUs.
const benchEnumWorkers = 8

// BenchOptions parameterizes Bench.
type BenchOptions struct {
	// Workers lists the fleet sizes to measure (default 1, 2, 4).
	Workers []int
	// Budget is the per-cell simulation budget (default 1k warmup / 4k
	// detail: tiny cells, so the rows weigh fabric and store overhead,
	// the thing this benchmark exists to track, over simulator speed).
	Budget experiment.Budget
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (o BenchOptions) withDefaults() BenchOptions {
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4}
	}
	if o.Budget == (experiment.Budget{}) {
		o.Budget = experiment.Budget{Warmup: 1_000, Detail: 4_000}
	}
	return o
}

// Bench measures the distributed threshold sweep over loopback: for
// each fleet size, a cold run against a fresh store (every cell leased
// to a worker, simulated once fleet-wide, published over HTTP) and then
// a warm replay over the published entries (every cell a remote store
// hit, no fleet involved). The cold rows' cells/sec should scale with
// the fleet; the warm row is the store's replay throughput floor.
func Bench(opt BenchOptions) ([]stats.SweepRow, error) {
	opt = opt.withDefaults()
	var rows []stats.SweepRow
	for _, n := range opt.Workers {
		if n < 1 {
			return rows, fmt.Errorf("sweepfab: bench fleet size %d", n)
		}
		logf(opt.Log, "sweep bench: cold run, %d worker(s)", n)
		cold, warm, err := benchFleet(n, opt.Budget)
		if err != nil {
			return rows, err
		}
		logf(opt.Log, "sweep bench: %d worker(s): cold %.1f cells/sec, warm %.1f replays/sec",
			n, cold.CellsPerSec, warm.CellsPerSec)
		rows = append(rows, cold, warm)
	}
	return rows, nil
}

// benchFleet measures one fleet size: spin a store server, coordinator
// and n workers on loopback, run the sweep cold, tear the fleet down,
// then replay warm from the published store.
func benchFleet(n int, b experiment.Budget) (cold, warm stats.SweepRow, err error) {
	dir, err := os.MkdirTemp("", "sweepbench-")
	if err != nil {
		return cold, warm, err
	}
	defer os.RemoveAll(dir)
	st, err := simstore.Open(dir)
	if err != nil {
		return cold, warm, err
	}
	httpLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cold, warm, err
	}
	srv := &http.Server{Handler: simstore.Handler(st)}
	go srv.Serve(httpLis)
	defer srv.Close()
	storeURL := "http://" + httpLis.Addr().String()

	coord := NewCoordinator(Config{
		Store:        simstore.NewRemote(storeURL, nil),
		LeaseTimeout: time.Minute,
	})
	fabLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cold, warm, err
	}
	go coord.Serve(fabLis)

	workerStats := make([]WorkerStats, n)
	workerErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc := experiment.NewRunCache()
			rc.AttachStore(simstore.NewRemote(storeURL, nil))
			workerStats[i], workerErrs[i] = RunWorker(fabLis.Addr().String(), WorkerConfig{
				Name: fmt.Sprintf("bench-w%d", i),
				Exec: experiment.Exec{Cache: rc},
			})
		}(i)
	}

	rc := experiment.NewRunCache()
	coord.AttachTo(rc)
	start := time.Now() //ppflint:allow determinism bench wall-clock measurement
	experiment.ThresholdSweep(experiment.Exec{Workers: benchEnumWorkers, Cache: rc}, b)
	coldSec := time.Since(start).Seconds() //ppflint:allow determinism bench wall-clock measurement
	counters := coord.Board().Counters()
	coord.Close()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			return cold, warm, fmt.Errorf("sweepfab: bench worker %d: %w", i, werr)
		}
	}
	var ran uint64
	for _, ws := range workerStats {
		ran += ws.Cells
	}
	unique := counters.Submitted - counters.Deduped
	cold = stats.SweepRow{
		Workers:     n,
		Mode:        "cold",
		Cells:       unique,
		Seconds:     coldSec,
		CellsPerSec: float64(unique) / coldSec,
		Leases:      counters.Leases,
		Completions: counters.Completions,
		Requeues:    counters.Requeues,
		WorkerCells: ran,
	}

	// Warm replay: a fresh cache over the published store re-renders the
	// sweep with no fleet at all — every cell must be a remote hit.
	warmRC := experiment.NewRunCache()
	warmRC.AttachStore(simstore.NewRemote(storeURL, nil))
	start = time.Now() //ppflint:allow determinism bench wall-clock measurement
	experiment.ThresholdSweep(experiment.Exec{Workers: benchEnumWorkers, Cache: warmRC}, b)
	warmSec := time.Since(start).Seconds() //ppflint:allow determinism bench wall-clock measurement
	sst := warmRC.Store().Stats()
	if sst.ResultMisses != 0 {
		return cold, warm, fmt.Errorf("sweepfab: warm replay re-simulated %d cell(s)", sst.ResultMisses)
	}
	warm = stats.SweepRow{
		Workers:     n,
		Mode:        "warm",
		Cells:       sst.ResultHits,
		Seconds:     warmSec,
		CellsPerSec: float64(sst.ResultHits) / warmSec,
	}
	return cold, warm, nil
}

// logf writes one progress line when a log sink is attached.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
