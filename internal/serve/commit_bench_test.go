package serve

import (
	"fmt"
	"testing"

	"repro/internal/wal"
)

// noSyncFS is the real filesystem with every file sync a no-op.
type noSyncFS struct{ wal.OSFS }

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) OpenAppend(name string) (wal.File, error) {
	f, err := fs.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (fs noSyncFS) Create(name string) (wal.File, error) {
	f, err := fs.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// commitBenchDataset is a persisting dataset with budget for any number
// of commits. File syncs are no-ops and compaction is disabled so the
// numbers are the commit path's own CPU, copies and garbage, not the
// disk's latency or a checkpoint's.
func commitBenchDataset(tb testing.TB, n int) *Dataset {
	tb.Helper()
	s := New(Config{StateDir: tb.TempDir(), FS: noSyncFS{}, CheckpointEvery: -1})
	tb.Cleanup(s.Close)
	d, err := s.CreateDataset("bench", "piecewise", n, 1e6, 7, 1e12)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkCommit times one measure commit — charge, noise,
// canonicalise, encode, frame, stream, WAL append, audit leaf — per
// strategy and domain. CI smoke-runs it at -benchtime 20x.
func BenchmarkCommit(b *testing.B) {
	for _, strategy := range []string{"identity", "h2", "hb", "privelet"} {
		for _, n := range []int{1024, 4096} {
			b.Run(fmt.Sprintf("%s/%d", strategy, n), func(b *testing.B) {
				d := commitBenchDataset(b, n)
				if _, err := d.Measure(strategy, 1); err != nil {
					b.Fatal(err)
				}
				start := d.Summary().WALOffset
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.Measure(strategy, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(d.Summary().WALOffset-start)/float64(b.N), "record-B/op")
			})
		}
	}
}

// TestCommitAllocatesWithinRecordSize bounds the garbage of a commit by
// its own size: a 4096-cell identity commit may allocate at most four
// times the bytes of the record it writes, however long the stream has
// grown. (Before the O(nnz) commit path it was about eleven times, and
// grew with the stream.)
func TestCommitAllocatesWithinRecordSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	d := commitBenchDataset(t, 4096)
	const commits = 40 // past one growth of the frame list
	var recordBytes int64
	res := testing.Benchmark(func(b *testing.B) {
		start := d.Summary().WALOffset
		for i := 0; i < b.N*commits; i++ {
			if _, err := d.Measure("identity", 1); err != nil {
				b.Fatal(err)
			}
		}
		recordBytes = (d.Summary().WALOffset - start) / int64(b.N*commits)
	})
	perCommit := res.AllocedBytesPerOp() / commits
	t.Logf("identity/4096: %d B allocated per commit for a %d B record (%.1f×)",
		perCommit, recordBytes, float64(perCommit)/float64(recordBytes))
	if perCommit > 4*recordBytes {
		t.Fatalf("a commit allocates %d B, more than 4× its %d B record", perCommit, recordBytes)
	}
}
