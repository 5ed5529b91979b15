package profilestore

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkStoreHotHit times the hot path: a cache hit is one shard
// lock, one map probe, one intrusive splice and one atomic add, with
// no allocation (TestHotHitAllocFree pins that in the test suite).
func BenchmarkStoreHotHit(b *testing.B) {
	cl := &countingLoader{t: b}
	s := New(Config{Loader: cl})
	if _, err := s.Get("hot"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Get("hot")
		if err != nil || p == nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreColdLoad measures the miss path end to end: disk
// read, decode, validate, fingerprint, insert. Each iteration uses a
// fresh key against a pre-populated directory so the cache never
// warms.
func BenchmarkStoreColdLoad(b *testing.B) {
	dir := b.TempDir()
	dl := NewDirLoader(dir)
	p := synthProfile(b, 5, 1)
	const files = 512
	for i := 0; i < files; i++ {
		if err := dl.Save(fmt.Sprintf("driver-%d", i), p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Capacity 1 with a rotating key keeps every Get cold.
		if i%files == 0 {
			b.StopTimer()
			s := New(Config{Shards: 1, Capacity: 1, Loader: dl})
			b.StartTimer()
			benchStore = s
		}
		if _, err := benchStore.Get(fmt.Sprintf("driver-%d", i%files)); err != nil {
			b.Fatal(err)
		}
	}
}

var benchStore *Store // keeps the cold-load store out of the timed loop's escape analysis

// BenchmarkStoreContention64 drives 64 goroutines at a 16-key working
// set that fits in cache: the sharded-lock scaling story under pure
// hit traffic.
func BenchmarkStoreContention64(b *testing.B) {
	cl := &countingLoader{t: b}
	s := New(Config{Shards: 8, Capacity: 64, Loader: cl})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("driver-%d", i)
		if _, err := s.Get(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	prev := runtime.GOMAXPROCS(0)
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism((64 + prev - 1) / prev) // ≈64 concurrent goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := keys[ctr.Add(1)%uint64(len(keys))]
			if p, err := s.Get(k); err != nil || p == nil {
				b.Fatal(err)
			}
		}
	})
}
