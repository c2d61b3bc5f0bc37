package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"speedkit/internal/clock"
)

// BenchmarkWALAppend measures sustained append throughput with a fixed
// number of concurrent appenders sharing one log. This is the bench behind
// the committed BENCH_wal.json baseline (suite "wal-append"). An
// acknowledgement means "in the OS file". The fsync is pinned wide (one
// per 4096 appends, and a clock that never advances), so the lines time
// framing, the log's mutex and the write syscall rather than the disk's
// flush latency. Every line must stay at zero allocations per append.
func BenchmarkWALAppend(b *testing.B) {
	defer func(n int) { syncEvery = n }(syncEvery)
	syncEvery = 4096
	payload := make([]byte, 64)
	b.Run("buffered", func(b *testing.B) {
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			b.Run(fmt.Sprintf("appenders-%d", n), func(b *testing.B) {
				l, err := Open(Options{
					Dir:             b.TempDir(),
					SegmentMaxBytes: 1 << 30,
					Clock:           clock.NewSimulated(time.Time{}),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				per, extra := b.N/n, b.N%n
				for g := 0; g < n; g++ {
					cnt := per
					if g < extra {
						cnt++
					}
					wg.Add(1)
					go func(cnt int) {
						defer wg.Done()
						for i := 0; i < cnt; i++ {
							if _, err := l.Append(payload); err != nil {
								b.Error(err)
								return
							}
						}
					}(cnt)
				}
				wg.Wait()
				b.StopTimer()
			})
		}
	})
}
