package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// goldenSnapshotSHA256 is the SHA-256 of snapshotCell's snapshot bytes.
// It pins the byte layout the persistent store and the resume goldens
// depend on: an encoder change that alters a single byte fails here.
const goldenSnapshotSHA256 = "367d38599a8abb1865702c78555376c9b5f172bf2817b8187141ebb43fdcd898"

// snapshotCell builds the fixed cell the snapshot golden, allocation
// test and benchmark share: one PPF core (aggressive SPP under the
// default filter) on 605.mcf_s, seed 1, after a 5k-instruction warmup.
func snapshotCell(tb testing.TB) *System {
	tb.Helper()
	sys, err := NewSystem(DefaultConfig(1), []CoreSetup{{
		Trace:      workload.MustByName("605.mcf_s").NewReader(1),
		Prefetcher: prefetch.NewSPP(prefetch.AggressiveSPPConfig()),
		Filter:     ppf.New(ppf.DefaultConfig()),
	}})
	if err != nil {
		tb.Fatal(err)
	}
	sys.RunWarmup(5_000)
	return sys
}

func TestSnapshotGolden(t *testing.T) {
	blob, err := snapshotCell(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != goldenSnapshotSHA256 {
		t.Fatalf("snapshot bytes changed: sha256 %s (%d bytes), want %s", got, len(blob), goldenSnapshotSHA256)
	}
}

// TestSnapshotAllocations pins the one-buffer encode: in steady state a
// Snapshot allocates little more than the bytes it returns. Growing the
// output by append, or copying it into a sealed envelope, costs several
// times the output and fails this bound.
func TestSnapshotAllocations(t *testing.T) {
	sys := snapshotCell(t)
	blob, err := sys.Snapshot() // warm any lazily built state
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sys.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.25 * float64(len(blob)); perOp > limit {
		t.Fatalf("Snapshot allocates %.0f bytes for a %d-byte snapshot (limit %.0f)", perOp, len(blob), limit)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	sys := snapshotCell(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := sys.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
	}
}
