// Package simtime provides a deterministic discrete-event scheduler with a
// virtual clock. All simulated components (links, TCP endpoints, HTTP/2
// applications, the adversary) run as callbacks on a single Scheduler, so an
// entire trial is single-threaded and bit-reproducible for a given seed.
package simtime

import (
	"fmt"
	"math/bits"
	"time"
)

// Event is a scheduled callback. Events fire in (time, sequence) order;
// the sequence number makes simultaneous events deterministic (FIFO).
//
// Fired events are recycled through a per-scheduler free list (trials
// schedule hundreds of thousands of short-lived timer events, and the
// scheduler is the hottest allocation site of a trial). An Event is
// single-owner: once its callback has run, the handle returned by At/After
// is dead and the owner must drop it — every component in this repo clears
// its stored handle inside the callback (or immediately after Cancel), so
// a recycled struct is never reachable through a stale handle. Cancelling
// a pending or already-cancelled event remains a safe no-op; cancelled
// events are deliberately NOT recycled, so double-Cancel can never corrupt
// a reused event. Callers that cancel and re-arm on a hot path use a
// Timer instead, which re-keys one registered event in place and never
// allocates.
//
// Lanes and timers hold an Event of their own (kind laneEv / timerEv):
// it is their single heap slot, registered once and never recycled.
type Event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	fnA  func(any) // AtArg form: pre-bound callback + argument, no closure
	arg  any       // the AtArg argument; the owning *Lane for a lane's slot
	id   int32     // index in the scheduler's event table (see eventQueue)
	kind evKind
	next *Event // free-list link; non-nil only while recycled
}

type evKind uint8

const (
	plainEv evKind = iota // At/AtArg: recycled after it fires
	laneEv                // a Lane's slot, keyed by the lane's head
	timerEv               // a Timer's slot
)

// Time reports the virtual time at which the event will fire.
func (e *Event) Time() time.Duration { return e.at }

// Scheduler is a discrete-event executor over a virtual clock.
// The zero value is ready to use.
type Scheduler struct {
	now      time.Duration
	nextSeq  uint64
	queue    eventQueue
	running  bool
	free     *Event // recycled fired events (see Event)
	stepHook func(time.Duration)

	laneFree  *laneEntry // recycled lane entries, shared by every Lane
	laneExtra int        // pending lane entries behind their lane's head

	// Watchdog state (see SetStepBudget / SetInterrupt). Both are off by
	// default and cost one predictable branch per fired event when
	// unarmed.
	steps       uint64
	stepBudget  uint64
	interrupt   func() bool
	interrupted bool
}

// pollEvery is how often (in fired events) the interrupt hook is polled.
// It may load shared state, so it is amortized; the step budget is exact.
const pollEvery = 1024

// BudgetError is the panic value raised when a trial exceeds its step
// budget: the deterministic watchdog verdict for a wedged simulation
// (e.g. a self-rescheduling timer loop that never quiesces). It fires at
// exactly the same event count for the same seed regardless of host, wall
// clock or worker count, so supervised sweeps stay byte-reproducible.
type BudgetError struct {
	Steps uint64        // events fired when the budget tripped
	Now   time.Duration // virtual time at the trip
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("simtime: step budget exceeded: %d events fired, virtual time %v", e.Steps, e.Now)
}

// SetStepBudget arms the deterministic watchdog: once n events have
// fired, the next Step panics with *BudgetError instead of running
// forever. 0 (the default) disables. The budget counts fired events, not
// scheduled ones, so cancelled timers don't consume it.
func (s *Scheduler) SetStepBudget(n uint64) { s.stepBudget = n }

// Steps reports how many events have fired so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// SetInterrupt installs a cooperative cancellation probe, polled every
// pollEvery fired events: when fn reports true, the run loops stop
// stepping (Step returns false) and Interrupted reports true. The sweep
// engine wires a context's Err here so a SIGINT drains mid-trial instead
// of waiting out the simulation. nil removes the probe.
func (s *Scheduler) SetInterrupt(fn func() bool) { s.interrupt = fn }

// Interrupted reports whether the interrupt probe has stopped a run.
func (s *Scheduler) Interrupted() bool { return s.interrupted }

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// SetStepHook installs a callback invoked with each fired event's time,
// just before its callback runs. Invariant checkers use it to assert
// clock monotonicity; simtime stays free of higher-layer imports by
// taking a plain func. nil removes the hook.
func (s *Scheduler) SetStepHook(fn func(time.Duration)) { s.stepHook = fn }

// Len reports the number of pending events. A lane occupies one heap
// slot however many entries it holds, so the entries behind each lane's
// head are counted separately.
func (s *Scheduler) Len() int { return len(s.queue.heap) + s.laneExtra }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (before Now) panics: it is always a simulation bug, never a recoverable
// condition.
func (s *Scheduler) At(at time.Duration, fn func()) *Event {
	if fn == nil {
		panic("simtime: At called with nil callback")
	}
	ev := s.event(at)
	ev.fn = fn
	s.queue.push(ev)
	return ev
}

// event returns an unarmed event stamped with at and the next sequence
// number: a recycled one when the free list has one (its callback fields
// were cleared when it fired), otherwise a new one entered in the event
// table.
func (s *Scheduler) event(at time.Duration) *Event {
	seq := s.stamp(at)
	ev := s.free
	if ev != nil {
		s.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{}
		s.queue.register(ev)
	}
	ev.at, ev.seq = at, seq
	return ev
}

// stamp hands out the sequence number of an event scheduled at at. Every
// way of scheduling draws it here, in call order, which is what makes the
// keys of plain events, lane entries and timers one total order.
func (s *Scheduler) stamp(at time.Duration) uint64 {
	if at < s.now {
		panic(fmt.Sprintf("simtime: event scheduled in the past: at=%v now=%v", at, s.now))
	}
	s.nextSeq++
	return s.nextSeq - 1
}

// After schedules fn to run d after the current virtual time.
// Negative d is clamped to zero.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtArg is At for hot paths that would otherwise close over a single
// value: fn is a long-lived function (typically a method value bound
// once at construction) and arg is handed back to it when the event
// fires. Scheduling this way allocates nothing beyond the (recycled)
// Event — the server's per-chunk steps and a lane's out-of-order
// appends (see Lane) schedule this way.
func (s *Scheduler) AtArg(at time.Duration, fn func(any), arg any) *Event {
	if fn == nil {
		panic("simtime: AtArg called with nil callback")
	}
	ev := s.event(at)
	ev.fnA, ev.arg = fn, arg
	s.queue.push(ev)
	return ev
}

// AfterArg is After's AtArg form.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) *Event {
	if d < 0 {
		d = 0
	}
	return s.AtArg(s.now+d, fn, arg)
}

// Cancel removes a pending event. Cancelling an already-cancelled event is
// a no-op, so callers can cancel unconditionally in cleanups. A fired
// event's handle is dead (its struct may have been recycled into a new
// event); callers must clear stored handles inside the callback rather
// than cancel them afterwards. Removal is eager, so the queue only ever
// holds live events.
func (s *Scheduler) Cancel(ev *Event) {
	if ev == nil || !s.queue.queued(ev) {
		return
	}
	s.queue.cancel(ev)
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event was run. With a step budget armed it
// panics with *BudgetError once the budget is exhausted — the error, not
// a hang, is the contract. The verdict is reached by peeking at the root,
// so a tripped Step leaves the queue exactly as it found it for a
// recovering supervisor to inspect.
func (s *Scheduler) Step() bool {
	q := &s.queue
	if s.interrupted || len(q.heap) == 0 {
		return false
	}
	if s.stepBudget > 0 && s.steps >= s.stepBudget {
		panic(&BudgetError{Steps: s.steps, Now: s.now})
	}
	s.steps++
	if s.steps%pollEvery == 0 && s.interrupt != nil && s.interrupt() {
		s.interrupted = true
		return false
	}
	ev := q.evs[q.heap[0].id]
	s.now = ev.at
	if s.stepHook != nil {
		s.stepHook(ev.at)
	}
	switch ev.kind {
	case laneEv:
		s.fireLane(ev)
	case timerEv:
		q.remove(0)
		ev.fn()
	default:
		q.remove(0)
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.fnA(ev.arg)
		}
		// Recycle only after the callback returns: a callback that
		// reaches its own stale handle (cancel-guarded cleanup paths)
		// still sees a popped, unpooled event and no-ops. The struct
		// becomes live again only when a later At re-arms it.
		ev.fn = nil
		ev.fnA = nil
		ev.arg = nil
		ev.next = s.free
		s.free = ev
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	s.guardReentry()
	defer func() { s.running = false }()
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline (even if the queue still holds later events).
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.guardReentry()
	defer func() { s.running = false }()
	for len(s.queue.heap) > 0 && s.queue.heap[0].at <= deadline {
		if !s.Step() {
			// Interrupted: stop draining. The clock still advances to the
			// deadline below so collection sees a consistent end time.
			break
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunWhile executes events until cond reports false or the queue drains.
// cond is evaluated before each event.
func (s *Scheduler) RunWhile(cond func() bool) {
	s.guardReentry()
	defer func() { s.running = false }()
	for cond() && s.Step() {
	}
}

func (s *Scheduler) guardReentry() {
	if s.running {
		panic("simtime: re-entrant Run on the same Scheduler")
	}
	s.running = true
}

// eventQueue is a 4-ary min-heap ordered by (time, sequence). Every
// (at, seq) key is distinct, so the pop order is the strict total order
// on keys, whatever the heap shape.
//
// Each heap slot carries its event's key inline, so sifting compares
// contiguous values instead of chasing *Event pointers, and the typed
// methods avoid container/heap's interface call per Less and Swap. Four
// children per node halve the tree depth of a binary heap, and a node's
// children are adjacent in memory. Slots name their event by its index in
// the event table rather than by pointer: the heap holds no pointers, so
// moving a slot never pays a garbage-collector write barrier and the
// collector never scans it. pos tracks each queued event's heap index,
// which makes Cancel an eager O(log n) removal and lets a Timer re-key
// its slot in place. A Lane's slot carries its head entry's key.
type eventQueue struct {
	heap []qslot
	evs  []*Event // event table, by Event.id
	pos  []int32  // heap index by Event.id; -1 while not queued
	free []int32  // ids released by cancelled events
}

type qslot struct {
	at  time.Duration
	seq uint64
	id  int32
}

// register enters a new event in the table, reusing a released id when
// there is one.
func (q *eventQueue) register(ev *Event) {
	if n := len(q.free); n > 0 {
		ev.id = q.free[n-1]
		q.free = q.free[:n-1]
		q.evs[ev.id] = ev
		return
	}
	ev.id = int32(len(q.evs))
	q.evs = append(q.evs, ev)
	q.pos = append(q.pos, -1)
}

// queued reports whether ev is pending in this queue. A cancelled
// event's id may already name another event, hence the identity check.
func (q *eventQueue) queued(ev *Event) bool {
	return int(ev.id) < len(q.evs) && q.evs[ev.id] == ev && q.pos[ev.id] >= 0
}

// cancel removes a queued event for good and releases its id. The
// struct is never recycled, so a stale handle to it stays inert.
func (q *eventQueue) cancel(ev *Event) {
	q.remove(int(q.pos[ev.id]))
	q.evs[ev.id] = nil
	q.free = append(q.free, ev.id)
}

func (q *eventQueue) push(ev *Event) {
	q.heap = append(q.heap, qslot{at: ev.at, seq: ev.seq, id: ev.id})
	q.up(len(q.heap) - 1)
}

// remove deletes the slot at index i. The hole sinks along earliest
// children to a leaf, then the former last slot fills it and rises into
// place. The last slot almost always belongs near the leaves, so this
// spends one comparison per level less than sifting it down from i.
func (q *eventQueue) remove(i int) {
	h := q.heap
	q.pos[h[i].id] = -1
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	if i == n {
		return
	}
	j := q.sink(i)
	h[j] = last
	q.up(j)
}

// up moves the slot at i toward the root until its parent is earlier.
func (q *eventQueue) up(i int) {
	h, pos := q.heap, q.pos
	s := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if before(&s, &h[p]) == 0 {
			break
		}
		h[i] = h[p]
		pos[h[i].id] = int32(i)
		i = p
	}
	h[i] = s
	pos[s.id] = int32(i)
}

// rekey gives the queued event ev the key it now carries, moving its
// slot up or down from where it sits.
func (q *eventQueue) rekey(ev *Event) {
	i := int(q.pos[ev.id])
	q.heap[i].at, q.heap[i].seq = ev.at, ev.seq
	q.up(i)
	q.down(int(q.pos[ev.id]))
}

// down moves the slot at i away from the root until no child is earlier.
func (q *eventQueue) down(i int) {
	h, pos := q.heap, q.pos
	s := h[i]
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := minChild(h, c)
		if before(&h[m], &s) == 0 {
			break
		}
		h[i] = h[m]
		pos[h[i].id] = int32(i)
		i = m
	}
	h[i] = s
	pos[s.id] = int32(i)
}

// sink moves the hole at i down to a leaf, lifting the earliest child
// into it at each level, and returns the hole's final index.
func (q *eventQueue) sink(i int) int {
	h, pos := q.heap, q.pos
	for {
		c := 4*i + 1
		if c >= len(h) {
			return i
		}
		m := minChild(h, c)
		h[i] = h[m]
		pos[h[i].id] = int32(i)
		i = m
	}
}

// minChild returns the index of the earliest of the up to four children
// starting at c. A full group is decided as a two-round tournament whose
// winners are selected arithmetically: which child is earliest is data,
// not a predictable branch, and a mispredicted branch per comparison
// would cost more than the comparisons themselves.
func minChild(h []qslot, c int) int {
	if c+3 < len(h) {
		g := h[c : c+4 : c+4]
		a := before(&g[1], &g[0])
		b := 2 + before(&g[3], &g[2])
		w := before(&g[b&3], &g[a&3])
		return c + (a ^ ((a ^ b) & -w))
	}
	m := c
	for j := c + 1; j < len(h); j++ {
		if before(&h[j], &h[m]) == 1 {
			m = j
		}
	}
	return m
}

// before reports whether slot a fires before slot b, as 1 or 0: the
// borrow out of the 128-bit subtraction (a.at, a.seq) − (b.at, b.seq).
// Times are never negative, so comparing at unsigned is comparing it
// signed.
func before(a, b *qslot) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}
