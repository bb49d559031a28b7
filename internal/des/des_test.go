package des

import (
	"sort"
	"testing"
	"testing/quick"

	"stochsched/internal/rng"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tt := range times {
		tt := tt
		s.At(tt, func() { order = append(order, tt) })
	}
	s.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("fired %d events, want %d", len(order), len(times))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.At(2, func() {
		if s.Now() != 2 {
			t.Errorf("Now() = %v inside event at 2", s.Now())
		}
		s.Schedule(3, func() {
			if s.Now() != 5 {
				t.Errorf("Now() = %v inside chained event", s.Now())
			}
		})
	})
	s.Run()
	if s.Now() != 5 {
		t.Fatalf("final clock %v, want 5", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.At(1, func() { fired = true })
	h.Cancel()
	h.Cancel() // double-cancel is a no-op
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Fired() != 0 {
		t.Fatalf("fired count = %d, want 0", s.Fired())
	}
}

func TestCancelFromEvent(t *testing.T) {
	s := New()
	fired := false
	var h Handle
	s.At(1, func() { h.Cancel() })
	h = s.At(2, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() { count++ })
	}
	s.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("fired %d events by t=5.5, want 5", count)
	}
	if s.Now() != 5.5 {
		t.Fatalf("clock %v, want horizon 5.5", s.Now())
	}
	s.RunUntil(100)
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestHalt(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("fired %d events after halt, want 3", count)
	}
	s.Run()
	if count != 10 {
		t.Fatalf("resume fired %d total, want 10", count)
	}
}

func TestSchedulingPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

// TestRandomScheduleOrdering drives the kernel with random event sets and
// checks the firing order matches a sorted reference.
func TestRandomScheduleOrdering(t *testing.T) {
	stream := rng.New(99)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		s := New()
		times := make([]float64, n)
		var fired []float64
		for i := 0; i < n; i++ {
			times[i] = stream.Float64() * 100
			tt := times[i]
			s.At(tt, func() { fired = append(fired, tt) })
		}
		s.Run()
		sort.Float64s(times)
		if len(fired) != n {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		s := New()
		stream := rng.New(7)
		var log []float64
		var arrive func()
		arrive = func() {
			log = append(log, s.Now())
			if s.Now() < 50 {
				s.Schedule(stream.Exp(1), arrive)
			}
		}
		s.Schedule(stream.Exp(1), arrive)
		s.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Stress: random interleavings of scheduling and cancellation must fire
// exactly the non-cancelled events, in time order.
func TestRandomCancellationStress(t *testing.T) {
	stream := rng.New(123)
	for trial := 0; trial < 30; trial++ {
		s := New()
		type rec struct {
			time      float64
			cancelled bool
		}
		var recs []*rec
		var fired []float64
		var handles []Handle
		n := 50 + stream.Intn(200)
		for i := 0; i < n; i++ {
			r := &rec{time: stream.Float64() * 100}
			recs = append(recs, r)
			h := s.At(r.time, func() { fired = append(fired, r.time) })
			handles = append(handles, h)
		}
		// Cancel a random third.
		for i := range handles {
			if stream.Bernoulli(0.33) {
				handles[i].Cancel()
				recs[i].cancelled = true
			}
		}
		s.Run()
		var want []float64
		for _, r := range recs {
			if !r.cancelled {
				want = append(want, r.time)
			}
		}
		sort.Float64s(want)
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: event %d fired at %v, want %v", trial, i, fired[i], want[i])
			}
		}
	}
}

// TestScheduleCallSharesTheOrder: closures and argument-carrying calls
// scheduled at one time fire in insertion order, and a call's handle
// cancels it.
func TestScheduleCallSharesTheOrder(t *testing.T) {
	s := New()
	var order []int
	call := func(i int) { order = append(order, i) }
	s.Schedule(1, func() { order = append(order, 0) })
	s.ScheduleCall(1, call, 1)
	s.Schedule(1, func() { order = append(order, 2) })
	s.ScheduleCall(1, call, 3)
	s.ScheduleCall(0.5, call, 99).Cancel()
	s.Run()
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("mixed events fired as %v, want [0 1 2 3]", order)
	}
	if s.Fired() != 4 || s.Now() != 1 {
		t.Fatalf("fired %d, clock %v; want 4 at 1", s.Fired(), s.Now())
	}
}

// TestCancelAfterFireIsNoOp: a handle whose event already fired cancels
// nothing, even when a later event shares its time.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	s := New()
	count := 0
	h := s.At(1, func() { count++ })
	s.Step()
	s.At(1, func() { count++ })
	h.Cancel()
	var zero Handle
	zero.Cancel()
	s.Run()
	if count != 2 || s.Pending() != 0 {
		t.Fatalf("count %d, pending %d; want 2, 0", count, s.Pending())
	}
}

// TestCancelledEventDoesNotMoveTheClock: the clock ends at the last live
// event, not at a cancelled later one.
func TestCancelledEventDoesNotMoveTheClock(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(7, func() {}).Cancel()
	s.Run()
	if s.Now() != 1 || s.Fired() != 1 {
		t.Fatalf("clock %v, fired %d; want 1, 1", s.Now(), s.Fired())
	}
}

// warmed returns a simulator holding pending self-rescheduling events,
// with its heap grown past what the measured loop needs.
func warmed() *Simulator {
	s := New()
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i), func() {})
	}
	for i := 0; i < 1024; i++ {
		s.Schedule(1, func() {})
		s.Step()
	}
	return s
}

func TestScheduleDoesNotAllocate(t *testing.T) {
	s := warmed()
	action := func() {}
	if n := testing.AllocsPerRun(1000, func() {
		s.Schedule(1, action)
		s.Step()
	}); n != 0 {
		t.Fatalf("Schedule+Step allocates %v per event, want 0", n)
	}
}

func TestScheduleCallDoesNotAllocate(t *testing.T) {
	s := warmed()
	sum := 0
	call := func(i int) { sum += i }
	if n := testing.AllocsPerRun(1000, func() {
		s.ScheduleCall(1, call, 3)
		s.Step()
	}); n != 0 {
		t.Fatalf("ScheduleCall+Step allocates %v per event, want 0", n)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	stream := rng.New(1)
	action := func() {}
	// Keep a rolling queue of 1000 events.
	for i := 0; i < 1000; i++ {
		s.Schedule(stream.Float64(), action)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(stream.Float64(), action)
		s.Step()
	}
}
