package serve

import (
	"testing"

	"repro/internal/mat"
)

// BenchmarkQueryCacheHit times one Dataset.Query of a workload already
// cached at the current epoch — validation, fingerprint and the cache
// lookup on the calling goroutine, no batcher, lock or panel work — at
// query.hot's shape (domain 4096, 8 ranges). Every iteration must hit.
// CI smoke-runs it at -benchtime 2000x.
func BenchmarkQueryCacheHit(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	d, err := s.CreateDataset("bench", "piecewise", 4096, 1e6, 7, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Measure("hb", 1); err != nil {
		b.Fatal(err)
	}
	wl := make([]mat.Range1D, 8)
	for i := range wl {
		wl[i] = mat.Range1D{Lo: 512 * i, Hi: 512*i + 300}
	}
	if _, err := d.Query(wl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Query(wl)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("repeated workload missed the cache")
		}
	}
}
