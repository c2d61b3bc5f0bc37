package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealNowProgresses(t *testing.T) {
	a := System.Now()
	b := System.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestSimulatedDefaultsToFixedEpoch(t *testing.T) {
	a := NewSimulated(time.Time{})
	b := NewSimulated(time.Time{})
	if !a.Now().Equal(b.Now()) {
		t.Fatalf("default epochs differ: %v vs %v", a.Now(), b.Now())
	}
}

func TestSimulatedAdvance(t *testing.T) {
	c := NewSimulated(time.Unix(100, 0))
	c.Advance(5 * time.Second)
	if got := c.Now(); !got.Equal(time.Unix(105, 0)) {
		t.Fatalf("now = %v, want 105s", got)
	}
	c.Advance(-time.Hour) // ignored
	if got := c.Now(); !got.Equal(time.Unix(105, 0)) {
		t.Fatalf("negative advance moved clock: %v", got)
	}
}

func TestSimulatedSetNeverBackwards(t *testing.T) {
	c := NewSimulated(time.Unix(100, 0))
	c.Set(time.Unix(50, 0))
	if !c.Now().Equal(time.Unix(100, 0)) {
		t.Fatalf("Set moved clock backwards to %v", c.Now())
	}
	c.Set(time.Unix(200, 0))
	if !c.Now().Equal(time.Unix(200, 0)) {
		t.Fatalf("Set failed to move forward: %v", c.Now())
	}
}

func TestSince(t *testing.T) {
	c := NewSimulated(time.Unix(100, 0))
	start := c.Now()
	c.Advance(90 * time.Second)
	if got := Since(c, start); got != 90*time.Second {
		t.Fatalf("Since = %v, want 90s", got)
	}
}

func TestStopwatchElapsedAndReset(t *testing.T) {
	c := NewSimulated(time.Unix(0, 0))
	sw := NewStopwatch(c)
	c.Advance(3 * time.Second)
	if got := sw.Elapsed(); got != 3*time.Second {
		t.Fatalf("Elapsed = %v, want 3s", got)
	}
	sw.Reset()
	if got := sw.Elapsed(); got != 0 {
		t.Fatalf("Elapsed after Reset = %v, want 0", got)
	}
	c.Advance(time.Second)
	if got := sw.Elapsed(); got != time.Second {
		t.Fatalf("Elapsed after Reset+Advance = %v, want 1s", got)
	}
}

func TestStopwatchNilClockDefaultsToSystem(t *testing.T) {
	sw := NewStopwatch(nil)
	if sw.Elapsed() < 0 {
		t.Fatal("system stopwatch ran backwards")
	}
}

func TestSimulatedConcurrentAdvance(t *testing.T) {
	c := NewSimulated(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); !got.Equal(time.Unix(8, 0)) {
		t.Fatalf("now = %v, want 8s", got)
	}
}

// TestCoarseNowAllocatesNothing: the hot-path packages read the coarse
// clock on every request. After the one-time start of its updater, Now is
// the sync.Once fast path and one atomic load.
func TestCoarseNowAllocatesNothing(t *testing.T) {
	c := NewCoarse(time.Hour)
	first := c.Now() // starts the updater
	var now time.Time
	if n := testing.AllocsPerRun(1000, func() { now = c.Now() }); n != 0 {
		t.Fatalf("Coarse.Now allocates %.1f per run, want 0", n)
	}
	if now.Before(first) {
		t.Fatalf("Coarse.Now went backwards: %v then %v", first, now)
	}
}

// TestCoarseTickAllocatesNothing: the updater stores the wall time every
// resolution for the life of the process, read or not, so its store step
// must not allocate — an idle process would otherwise garbage-collect the
// clock.
func TestCoarseTickAllocatesNothing(t *testing.T) {
	c := NewCoarse(time.Hour)
	first := c.Now() // starts the updater, an hour from its first tick
	if n := testing.AllocsPerRun(1000, c.store); n != 0 {
		t.Fatalf("a Coarse tick allocates %.1f per run, want 0", n)
	}
	if now := c.Now(); now.Before(first) || time.Since(now) > time.Minute {
		t.Fatalf("Coarse.Now reads %v after ticks, %v before them", now, first)
	}
}
