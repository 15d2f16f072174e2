package simstore

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := openTemp(t)
	payload := []byte("result bytes")
	if _, ok := s.LoadResult("key1"); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.SaveResult("key1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadResult("key1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("LoadResult = %q, %v; want %q, true", got, ok, payload)
	}
	// Kinds are separate namespaces: the same key misses as a snapshot.
	if _, ok := s.LoadSnapshot("key1"); ok {
		t.Fatal("result entry served as a snapshot")
	}
	st := s.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.SnapshotMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveSnapshot("k", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadSnapshot("k")
	if !ok || len(got) != 0 {
		t.Fatalf("LoadSnapshot = %v, %v; want empty, true", got, ok)
	}
}

// entryFile returns the single entry file under the store's
// subdirectory for the given kind.
func entryFile(t *testing.T, s *Store, sub string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Dir(), sub, "*"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one entry under %s, got %v (%v)", sub, matches, err)
	}
	return matches[0]
}

// TestCorruptionFallsBackAndRewrites is the corruption-hardening
// golden: a bit-flipped snapshot entry must report a miss (not bad
// data), count as corrupt, and be replaced by the caller's rewrite.
func TestCorruptionFallsBackAndRewrites(t *testing.T) {
	log.SetOutput(os.Stderr)
	s := openTemp(t)
	payload := bytes.Repeat([]byte("machine state "), 64)
	if err := s.SaveSnapshot("warm-key", payload); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s, "w")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := s.LoadSnapshot("warm-key"); ok {
		t.Fatalf("bit-flipped entry served a hit: %q", got)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.SnapshotMisses != 1 {
		t.Fatalf("stats after corruption = %+v", st)
	}

	// The fall-back path recomputes and rewrites; the entry is whole again.
	if err := s.SaveSnapshot("warm-key", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadSnapshot("warm-key")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("rewritten entry did not load")
	}
}

func TestTruncatedEntry(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveResult("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s, "r")
	raw, _ := os.ReadFile(path)
	for _, n := range []int{0, 3, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.LoadResult("k"); ok {
			t.Fatalf("truncated entry (%d bytes) served a hit", n)
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveResult("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s, "r")
	raw, _ := os.ReadFile(path)
	// Bump the version field and re-checksum, simulating an entry from a
	// future format: it must be rejected for its version, not its crc.
	binary.LittleEndian.PutUint32(raw[4:8], version+1)
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadResult("k"); ok {
		t.Fatal("version-mismatched entry served a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v; want 1 corrupt", st)
	}
}

// TestDefaultLevelEntryDecodes pins that the gzip level is not part of
// the entry format: an entry compressed at gzip's default level, as
// stores wrote before entries moved to BestSpeed, still loads.
func TestDefaultLevelEntryDecodes(t *testing.T) {
	s := openTemp(t)
	payload := make([]byte, 1<<16)
	for i := range payload {
		if i%61 == 0 {
			payload[i] = byte(i)
		}
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], version)
	hdr[4] = kindSnapshot
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len("k")))
	buf.Write(hdr[:])
	buf.WriteString("k")
	zw := gzip.NewWriter(&buf)
	zw.Write(payload)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	fresh, err := encodeEntry(kindSnapshot, "k", payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fresh, buf.Bytes()) {
		t.Fatal("test entry is not a default-level stream: BestSpeed wrote the same bytes")
	}
	if err := os.WriteFile(s.path(kindSnapshot, "k"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadSnapshot("k")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("default-level entry: hit %v, payload equal %v", ok, bytes.Equal(got, payload))
	}
}

// TestKeyEchoGuardsAliasing simulates two keys landing on one file (a
// hash collision): the echoed key must reject the mismatched read.
func TestKeyEchoGuardsAliasing(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveResult("key-a", []byte("a's data")); err != nil {
		t.Fatal(err)
	}
	// Copy a's entry file onto b's address.
	raw, err := os.ReadFile(s.path(kindResult, "key-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(kindResult, "key-b"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.LoadResult("key-b"); ok {
		t.Fatalf("aliased entry served a hit: %q", got)
	}
}

// TestConcurrentSameKey hammers one key from many goroutines mixing
// loads and saves; run under -race this pins that the store's locking
// and atomic-rename writes keep concurrent access safe, and that any
// successful load observes a complete payload.
func TestConcurrentSameKey(t *testing.T) {
	s := openTemp(t)
	payload := bytes.Repeat([]byte("x"), 4096)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.SaveSnapshot("shared", payload); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if got, ok := s.LoadSnapshot("shared"); ok && !bytes.Equal(got, payload) {
					t.Errorf("load observed a torn payload (%d bytes)", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent access produced corrupt reads: %+v", st)
	}
}

func TestReportLine(t *testing.T) {
	s := openTemp(t)
	s.LoadResult("miss")
	line := s.ReportLine()
	want := "disk store: 0 result hits / 1 misses, 0 snapshot hits / 0 misses"
	if line != want {
		t.Fatalf("ReportLine = %q, want %q", line, want)
	}
}
