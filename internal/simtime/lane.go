package simtime

import "time"

// Lane is a FIFO of AtArg-style events that share one callback and whose
// times never decrease — a link's serializer drains, or its deliveries
// when no jitter overtakes them. The whole lane occupies one heap slot,
// keyed by its head, so an in-order append costs no heap work and a fired
// head re-keys the root in place with one sift-down.
//
// Each entry keeps the (at, seq) key an AtArg call at the same point
// would have taken, and the entries of a lane are in key order, so the
// lane's head is its earliest entry and events fire in exactly the order
// separate AtArg events would. An append earlier than the lane's tail
// cannot join the FIFO; it is scheduled as an ordinary AtArg event with
// the same callback and the same key.
//
// A Lane is embedded by value in its owner and bound to the trial's
// scheduler with Init. Lane entries cannot be cancelled.
type Lane struct {
	ev         Event // the lane's heap slot: kind laneEv, arg = the lane
	s          *Scheduler
	fn         func(any)
	head, tail *laneEntry
}

// laneEntry is one pending lane event. Entries are recycled through the
// scheduler's free list.
type laneEntry struct {
	at   time.Duration
	seq  uint64
	arg  any
	next *laneEntry
}

// Init binds the lane to s with callback fn and registers its heap slot.
// An owner that outlives a trial re-initialises its lanes against the
// next trial's scheduler; a lane must not be re-initialised while it
// holds entries.
func (l *Lane) Init(s *Scheduler, fn func(any)) {
	if fn == nil {
		panic("simtime: Lane.Init called with nil callback")
	}
	*l = Lane{s: s, fn: fn}
	l.ev.kind = laneEv
	l.ev.arg = l
	s.queue.register(&l.ev)
}

// At schedules the lane's callback with arg at absolute virtual time at,
// as AtArg(at, fn, arg) would. Scheduling in the past panics.
func (l *Lane) At(at time.Duration, arg any) {
	s := l.s
	if l.tail != nil && at < l.tail.at {
		s.AtArg(at, l.fn, arg)
		return
	}
	seq := s.stamp(at)
	e := s.laneFree
	if e != nil {
		s.laneFree = e.next
	} else {
		e = &laneEntry{}
	}
	e.at, e.seq, e.arg, e.next = at, seq, arg, nil
	if l.tail == nil {
		l.head, l.tail = e, e
		l.ev.at, l.ev.seq = at, e.seq
		s.queue.push(&l.ev)
		return
	}
	l.tail.next = e
	l.tail = e
	s.laneExtra++
}

// fireLane runs the head entry of the lane whose slot ev is at the root.
// The lane is brought up to date before the callback runs, so the
// callback may append to its own lane.
func (s *Scheduler) fireLane(ev *Event) {
	l := ev.arg.(*Lane)
	e := l.head
	l.head = e.next
	if l.head != nil {
		ev.at, ev.seq = l.head.at, l.head.seq
		s.queue.heap[0].at, s.queue.heap[0].seq = ev.at, ev.seq
		s.queue.down(0)
		s.laneExtra--
	} else {
		l.tail = nil
		s.queue.remove(0)
	}
	arg := e.arg
	e.arg, e.next = nil, s.laneFree
	s.laneFree = e
	l.fn(arg)
}

// Timer is a re-armable event held by its owner: a transport's
// retransmission and probe timeouts, a browser's stall check. It is
// registered once and re-keyed in place, so re-arming it allocates
// nothing and moves its heap slot instead of removing one and pushing
// another.
//
// Reset takes a fresh sequence number exactly as After would, so a
// Stop-then-Reset or a Reset of a pending timer fires in the same order
// as the Cancel-then-After it replaces. A timer is never recycled: a
// Stop after it fired, or a second Stop, is a no-op.
//
// A Timer is embedded by value in its owner and bound to the trial's
// scheduler with Init; an owner that outlives a trial re-initialises it
// against the next trial's scheduler.
type Timer struct {
	ev Event // kind timerEv, fn = the callback
	s  *Scheduler
}

// Init binds the timer to s with callback fn and registers its slot. The
// timer starts stopped. It must not be re-initialised while pending.
func (t *Timer) Init(s *Scheduler, fn func()) {
	if fn == nil {
		panic("simtime: Timer.Init called with nil callback")
	}
	*t = Timer{s: s}
	t.ev.kind = timerEv
	t.ev.fn = fn
	s.queue.register(&t.ev)
}

// Reset arms the timer to fire at absolute virtual time at, replacing any
// pending expiry. Scheduling in the past panics.
func (t *Timer) Reset(at time.Duration) {
	s := t.s
	t.ev.at, t.ev.seq = at, s.stamp(at)
	if t.Pending() {
		s.queue.rekey(&t.ev)
		return
	}
	s.queue.push(&t.ev)
}

// Stop disarms a pending timer. Stopping a stopped or fired timer is a
// no-op.
func (t *Timer) Stop() {
	if t.Pending() {
		t.s.queue.remove(int(t.s.queue.pos[t.ev.id]))
	}
}

// Pending reports whether the timer is armed and has not fired yet. A
// timer's callback runs with the timer no longer pending.
func (t *Timer) Pending() bool {
	return t.s != nil && t.s.queue.pos[t.ev.id] >= 0
}
