// Package des is a deterministic discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and a pending-event queue ordered by
// (time, seq): event time, with FIFO tie-breaking by insertion order, so
// that runs are bit-for-bit reproducible. Events are stored by value in a
// binary heap, so scheduling one allocates nothing once the heap has
// grown. An event is either a closure (Schedule, At) or a func(int) with
// its argument (ScheduleCall), which lets a model bind one method per run
// and pass the per-event state as an index instead of building a closure
// per event. Cancellation (needed by preemptive scheduling policies, which
// must revoke tentative completion events) is supported through value
// handles.
package des

import "math"

// Handle names a scheduled event by its (time, seq) key and allows
// cancelling it. It is a small value: copies cancel the same event, and
// the zero Handle names no event.
type Handle struct {
	sim  *Simulator
	time float64
	seq  uint64
}

// Cancel removes the event from the queue, so it never fires, never counts
// in Fired and never moves the clock. Cancelling an already-fired or
// already-cancelled event, or the zero Handle, is a no-op. The cost grows
// with the number of pending events that precede the cancelled one.
func (h Handle) Cancel() {
	if h.sim == nil {
		return
	}
	if i := h.sim.find(0, h.time, h.seq); i >= 0 {
		h.sim.remove(i)
	}
}

// event is one queue entry: action, or call applied to arg when call is
// set.
type event struct {
	time   float64
	seq    uint64
	action func()
	call   func(int)
	arg    int
}

// before is the (time, seq) order every event fires in.
func (e *event) before(f *event) bool {
	if e.time != f.time {
		return e.time < f.time
	}
	return e.seq < f.seq
}

// Simulator is a discrete-event simulation clock and event queue. The zero
// value is ready to use.
type Simulator struct {
	now    float64
	queue  []event // binary min-heap in (time, seq) order
	seq    uint64  // seq of the last scheduled event; the first gets 1
	fired  uint64
	halted bool
}

// New returns a fresh simulator at time 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued. Cancelled events
// leave the queue at once and do not count.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule queues action to run after the given nonnegative delay and
// returns a cancellation handle.
func (s *Simulator) Schedule(delay float64, action func()) Handle {
	checkDelay(delay)
	return s.push(event{time: s.now + delay, action: action})
}

// ScheduleCall queues call(arg) to run after the given nonnegative delay
// and returns a cancellation handle. It shares Schedule's queue and order;
// a call bound once serves every event, so none of them allocates.
func (s *Simulator) ScheduleCall(delay float64, call func(int), arg int) Handle {
	checkDelay(delay)
	return s.push(event{time: s.now + delay, call: call, arg: arg})
}

// At queues action at absolute time t ≥ Now().
func (s *Simulator) At(t float64, action func()) Handle {
	if t < s.now {
		panic("des: scheduling into the past")
	}
	return s.push(event{time: t, action: action})
}

func checkDelay(delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		panic("des: negative or NaN delay")
	}
}

// push stamps ev with the next seq and sifts it up into the heap.
func (s *Simulator) push(ev event) Handle {
	s.seq++
	ev.seq = s.seq
	s.queue = append(s.queue, ev)
	s.up(len(s.queue) - 1)
	return Handle{sim: s, time: ev.time, seq: ev.seq}
}

// up moves the entry at i toward the root until its parent precedes it.
func (s *Simulator) up(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// down moves the entry at i toward the leaves until it precedes both
// children.
func (s *Simulator) down(i int) {
	q := s.queue
	n := len(q)
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// remove deletes the entry at i, clearing the vacated slot so the queue
// holds no reference to a spent action.
func (s *Simulator) remove(i int) {
	last := len(s.queue) - 1
	if i != last {
		s.queue[i] = s.queue[last]
	}
	s.queue[last] = event{}
	s.queue = s.queue[:last]
	if i != last {
		s.down(i)
		if i > 0 {
			s.up(i)
		}
	}
}

// find returns the heap index of the event keyed (t, seq) in the subtree
// at i, or -1. A subtree whose root comes after the key cannot hold it.
func (s *Simulator) find(i int, t float64, seq uint64) int {
	if i >= len(s.queue) {
		return -1
	}
	e := &s.queue[i]
	if e.time > t || (e.time == t && e.seq > seq) {
		return -1
	}
	if e.seq == seq {
		return i
	}
	if j := s.find(2*i+1, t, seq); j >= 0 {
		return j
	}
	return s.find(2*i+2, t, seq)
}

// Halt stops Run/RunUntil after the current event completes.
func (s *Simulator) Halt() { s.halted = true }

// Step executes the next pending event, if any, and reports whether one
// fired.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue[0]
	s.remove(0)
	s.now = ev.time
	s.fired++
	if ev.call != nil {
		ev.call(ev.arg)
	} else {
		ev.action()
	}
	return true
}

// RunUntil executes events in order until the queue is exhausted, the next
// event lies beyond horizon, or Halt is called. The clock is left at the
// horizon if it was reached, else at the last event time.
func (s *Simulator) RunUntil(horizon float64) {
	s.halted = false
	for !s.halted {
		if len(s.queue) == 0 || s.queue[0].time > horizon {
			if s.now < horizon {
				s.now = horizon
			}
			return
		}
		s.Step()
	}
}

// Run executes all pending events until the queue drains or Halt is called.
func (s *Simulator) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}
