package simtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is one pending event of the reference model.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// refQueue is the obviously correct priority queue the scheduler is
// checked against: a slice kept sorted by (at, seq).
type refQueue []refEvent

func (q *refQueue) add(e refEvent) {
	i := sort.Search(len(*q), func(i int) bool {
		o := (*q)[i]
		return o.at > e.at || (o.at == e.at && o.seq > e.seq)
	})
	*q = append(*q, refEvent{})
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = e
}

func (q *refQueue) remove(id int) {
	for i, e := range *q {
		if e.id == id {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("reference model: no pending event %d", id))
}

func (q *refQueue) popMin() refEvent {
	e := (*q)[0]
	*q = (*q)[1:]
	return e
}

// Harness sizes: the lanes and timers every diffHarness owns.
const (
	harnessLanes  = 2
	harnessTimers = 3
)

// diffHarness drives a Scheduler and a refQueue in lockstep with
// operations drawn from choose: plain At/AtArg events, lane appends and
// timer resets, cancels and stops, Step, RunUntil and budget trips. Every
// fired callback checks that it is the reference model's earliest event,
// and every operation compares Len() and the queue's next event.
type diffHarness struct {
	t       testing.TB
	s       *Scheduler
	ref     refQueue
	choose  func(n int) int // a choice in [0, n)
	handle  map[int]*Event  // pending plain id -> handle
	id      map[*Event]int  // pending plain handle -> id
	lanes   [harnessLanes]Lane
	timers  [harnessTimers]Timer
	timerID [harnessTimers]int // pending reference id per timer, -1 when stopped
	nextID  int
	seq     uint64
	fired   int
	fireA   func(any)
	quiet   bool // draining: callbacks schedule and cancel nothing
}

func newDiffHarness(t testing.TB, choose func(n int) int) *diffHarness {
	h := &diffHarness{
		t:      t,
		s:      NewScheduler(),
		choose: choose,
		handle: make(map[int]*Event),
		id:     make(map[*Event]int),
	}
	h.fireA = func(arg any) { h.fire(arg.(int)) }
	for k := range h.lanes {
		h.lanes[k].Init(h.s, h.fireA)
	}
	for k := range h.timers {
		k := k
		h.timerID[k] = -1
		h.timers[k].Init(h.s, func() {
			id := h.timerID[k]
			h.timerID[k] = -1
			h.fire(id)
			if !h.quiet && h.choose(3) == 0 {
				h.resetTimer(k) // re-arm from inside its own callback
			}
		})
	}
	return h
}

func randChooser(seed int64) func(int) int {
	return rand.New(rand.NewSource(seed)).Intn
}

// add records a newly scheduled event in the reference model and
// returns its id.
func (h *diffHarness) add(at time.Duration) int {
	id := h.nextID
	h.nextID++
	h.ref.add(refEvent{at: at, seq: h.seq, id: id})
	h.seq++
	return id
}

// when draws an event time in [now, now+20) ns, so ties are common and a
// lane's appends land both in and out of order.
func (h *diffHarness) when() time.Duration {
	return h.s.Now() + time.Duration(h.choose(20))
}

// schedule arms one plain event through At or AtArg at random.
func (h *diffHarness) schedule() {
	at := h.when()
	var ev *Event
	id := h.nextID
	if h.choose(2) == 0 {
		ev = h.s.At(at, func() { h.fire(id) })
	} else {
		ev = h.s.AtArg(at, h.fireA, id)
	}
	h.add(at)
	h.handle[id] = ev
	h.id[ev] = id
}

// appendLane appends to a random lane; an append behind the lane's tail
// takes the AtArg fallback, which the model cannot tell apart.
func (h *diffHarness) appendLane() {
	k := h.choose(harnessLanes)
	at := h.when()
	h.lanes[k].At(at, h.nextID)
	h.add(at)
}

func (h *diffHarness) resetTimer(k int) {
	at := h.when()
	h.timers[k].Reset(at)
	if h.timerID[k] >= 0 {
		h.ref.remove(h.timerID[k])
	}
	h.timerID[k] = h.add(at)
}

// stopTimer stops a random timer, pending or not.
func (h *diffHarness) stopTimer(k int) {
	h.timers[k].Stop()
	if h.timerID[k] >= 0 {
		h.ref.remove(h.timerID[k])
		h.timerID[k] = -1
	}
}

// scheduleAny arms a plain event, a lane entry or a timer.
func (h *diffHarness) scheduleAny() {
	switch h.choose(3) {
	case 0:
		h.schedule()
	case 1:
		h.appendLane()
	default:
		h.resetTimer(h.choose(harnessTimers))
	}
}

func (h *diffHarness) cancel(ev *Event) {
	id, ok := h.id[ev]
	if !ok {
		h.t.Fatalf("cancel of an event the harness does not hold")
	}
	h.s.Cancel(ev)
	delete(h.id, ev)
	delete(h.handle, id)
	h.ref.remove(id)
}

// timerOf returns the index of the harness timer whose slot is ev.
func (h *diffHarness) timerOf(ev *Event) int {
	for k := range h.timers {
		if &h.timers[k].ev == ev {
			return k
		}
	}
	h.t.Fatalf("timer slot the harness does not own")
	return -1
}

// cancelSome cancels or stops the queue's root, its last slot or a
// random slot; the first two are the heap's edge cases. Lane entries
// (and their AtArg fallbacks) cannot be cancelled and are left alone.
func (h *diffHarness) cancelSome() {
	q := &h.s.queue
	n := len(q.heap)
	if n == 0 {
		return
	}
	i := h.choose(n)
	switch h.choose(3) {
	case 0:
		i = 0
	case 1:
		i = n - 1
	}
	ev := q.evs[q.heap[i].id]
	switch ev.kind {
	case timerEv:
		h.stopTimer(h.timerOf(ev))
	case plainEv:
		if _, ok := h.id[ev]; ok {
			h.cancel(ev)
		}
	}
}

func (h *diffHarness) fire(id int) {
	if len(h.ref) == 0 {
		h.t.Fatalf("event %d fired but the reference queue is empty", id)
	}
	want := h.ref.popMin()
	if want.id != id || h.s.Now() != want.at {
		h.t.Fatalf("fired event %d at %v, reference fires %d at %v", id, h.s.Now(), want.id, want.at)
	}
	h.fired++
	if ev, ok := h.handle[id]; ok {
		delete(h.handle, id)
		delete(h.id, ev)
		if h.choose(8) == 0 {
			h.s.Cancel(ev) // self-cancel inside the callback: a no-op
		}
	}
	if !h.quiet {
		for n := h.choose(3); n > 0; n-- {
			h.scheduleAny()
		}
		switch h.choose(8) {
		case 0, 1:
			h.cancelSome()
		case 2:
			h.stopTimer(h.choose(harnessTimers))
		}
	}
	h.check()
}

// rootID maps the scheduler's next event to its reference id.
func (h *diffHarness) rootID() int {
	q := &h.s.queue
	ev := q.evs[q.heap[0].id]
	switch ev.kind {
	case laneEv:
		return ev.arg.(*Lane).head.arg.(int)
	case timerEv:
		return h.timerID[h.timerOf(ev)]
	}
	if ev.fnA != nil {
		return ev.arg.(int)
	}
	return h.id[ev]
}

// check compares Len(), the next event and every timer's Pending()
// against the model.
func (h *diffHarness) check() {
	if h.s.Len() != len(h.ref) {
		h.t.Fatalf("Len() = %d, reference holds %d", h.s.Len(), len(h.ref))
	}
	if len(h.ref) > 0 {
		if got := h.rootID(); got != h.ref[0].id {
			h.t.Fatalf("next event is %d, reference's is %d", got, h.ref[0].id)
		}
	}
	for k := range h.timers {
		if h.timers[k].Pending() != (h.timerID[k] >= 0) {
			h.t.Fatalf("timer %d Pending() = %v, reference id %d", k, h.timers[k].Pending(), h.timerID[k])
		}
	}
}

// step runs one operation chosen at random.
func (h *diffHarness) step() {
	switch op := h.choose(13); {
	case op < 3:
		h.schedule()
	case op < 4:
		h.appendLane()
	case op < 5:
		h.resetTimer(h.choose(harnessTimers))
	case op < 6:
		h.stopTimer(h.choose(harnessTimers))
	case op < 7:
		h.cancelSome()
	case op < 10:
		pending := len(h.ref)
		if ran := h.s.Step(); ran != (pending > 0) {
			h.t.Fatalf("Step ran=%v with %d events pending", ran, pending)
		}
	case op < 11:
		deadline := h.s.Now() + time.Duration(h.choose(10))
		h.s.RunUntil(deadline)
		if len(h.ref) > 0 && h.ref[0].at <= deadline {
			h.t.Fatalf("RunUntil(%v) left an event at %v pending", deadline, h.ref[0].at)
		}
		if h.s.Now() != deadline {
			h.t.Fatalf("RunUntil(%v) left the clock at %v", deadline, h.s.Now())
		}
	default:
		h.budgetTrip()
	}
	h.check()
}

// budgetTrip arms a step budget a few events ahead and runs into it: the
// trip must leave Len() and the next event as they were.
func (h *diffHarness) budgetTrip() {
	budget := h.s.Steps() + uint64(h.choose(4))
	if budget == 0 {
		budget = 1 // a zero budget disarms the watchdog
	}
	h.s.SetStepBudget(budget)
	defer h.s.SetStepBudget(0)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var be *BudgetError
		if err, ok := r.(error); !ok || !errors.As(err, &be) || be.Steps != budget {
			h.t.Fatalf("budget trip panicked with %v, want *BudgetError at %d", r, budget)
		}
		h.check()
	}()
	h.s.Run()
}

// interruptAndDrain grows the queue past one poll window, interrupts a
// run mid-way (the stopped queue must still match the model), then
// clears the interrupt and drains the rest with callbacks scheduling
// nothing: every remaining event must fire in the model's order.
func (h *diffHarness) interruptAndDrain() {
	for len(h.ref) < pollEvery+200 {
		h.scheduleAny()
	}
	h.s.SetInterrupt(func() bool { return true })
	h.s.Run()
	if !h.s.Interrupted() {
		h.t.Fatalf("interrupt probe did not stop the run")
	}
	h.check()
	h.s.SetInterrupt(nil)
	h.s.interrupted = false
	h.quiet = true
	h.s.Run()
	if len(h.ref) != 0 || h.s.Len() != 0 {
		h.t.Fatalf("drain left %d scheduled, %d in the reference", h.s.Len(), len(h.ref))
	}
}

// TestSchedulerMatchesReferenceQueue is the differential test of the
// event queue: random interleavings of At/AtArg, lane appends (in and
// out of order, also from a lane's own callback), timer resets and stops
// (pending, stopped, fired, inside their own callback), Cancel (root,
// last slot, self inside a callback), Step, RunUntil and step-budget
// trips must fire exactly the reference model's (at, seq) order. Each run
// ends with an interrupt and a drain, which must also match the model.
func TestSchedulerMatchesReferenceQueue(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 40; seed++ {
		h := newDiffHarness(t, randChooser(seed))
		for i := 0; i < 3000; i++ {
			h.step()
		}
		h.interruptAndDrain()
		total += h.fired
	}
	if total < 100_000 {
		t.Fatalf("only %d events fired; the interleavings are too thin", total)
	}
}

// FuzzSchedulerOps drives the differential harness with choices decoded
// from the fuzz input, one byte per choice, then drains the queue. Inputs
// are capped at 1 KiB: the reference model is a sorted slice, so longer
// op sequences cost quadratic time without reaching new queue shapes.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 3, 2, 3, 9, 4, 1, 4, 5, 8, 8, 8, 12, 0, 3})
	f.Add([]byte("lanes, timers and plain events in one queue"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		var h *diffHarness
		h = newDiffHarness(t, func(n int) int {
			if len(data) == 0 {
				// Out of input: callbacks stop scheduling, so every
				// run loop still underway drains.
				h.quiet = true
				return 0
			}
			c := int(data[0]) % n
			data = data[1:]
			return c
		})
		for len(data) > 0 {
			h.step()
		}
		h.quiet = true
		h.s.Run()
		if len(h.ref) != 0 || h.s.Len() != 0 {
			t.Fatalf("drain left %d scheduled, %d in the reference", h.s.Len(), len(h.ref))
		}
	})
}

// TestWatchdogsKeepLaneAndTimerRoots pins that a budget trip and an
// interrupt taken while a lane or a timer is the next event leave Len()
// and that next event untouched, and that the run then resumes in order.
func TestWatchdogsKeepLaneAndTimerRoots(t *testing.T) {
	for _, root := range []string{"lane", "timer"} {
		t.Run(root, func(t *testing.T) {
			s := NewScheduler()
			var got []int
			var lane Lane
			lane.Init(s, func(v any) { got = append(got, v.(int)) })
			var timer Timer
			timer.Init(s, func() { got = append(got, 0) })
			if root == "lane" {
				lane.At(1, 1)
				lane.At(2, 2)
				timer.Reset(3)
			} else {
				timer.Reset(1)
				lane.At(2, 1)
				lane.At(3, 2)
			}
			s.steps = pollEvery - 1 // the next Step polls the interrupt
			s.SetInterrupt(func() bool { return true })
			if s.Step() || !s.Interrupted() {
				t.Fatal("interrupt did not stop the step")
			}
			if s.Len() != 3 || s.queue.heap[0].at != 1 {
				t.Fatalf("after the interrupt: Len() = %d, next at %v; want 3 at 1ns", s.Len(), s.queue.heap[0].at)
			}
			s.SetInterrupt(nil)
			s.interrupted = false
			s.SetStepBudget(s.Steps())
			func() {
				defer func() {
					if _, ok := recover().(*BudgetError); !ok {
						t.Fatal("Step did not trip the budget")
					}
				}()
				s.Step()
			}()
			if s.Len() != 3 || s.queue.heap[0].at != 1 || len(got) != 0 {
				t.Fatalf("after the budget trip: Len() = %d, next at %v, fired %v", s.Len(), s.queue.heap[0].at, got)
			}
			s.SetStepBudget(0)
			s.Run()
			want := []int{1, 2, 0}
			if root == "timer" {
				want = []int{0, 1, 2}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
		})
	}
}

// BenchmarkSchedulerDepth measures the event loop at fleet-like depth:
// 1500 pending timers, each firing re-arming itself and cancelling and
// re-arming another, as an ACK re-arms a connection's RTO. Measured max
// depths are about 150 on a single attack trial, 505 under 200 Mbps cross
// traffic and 1348 on the N=1000 fleet. One op is one fired event.
// BenchmarkSchedulerThroughput (repository root) instead inserts in
// ascending time order, the heap's best case.
func BenchmarkSchedulerDepth(b *testing.B) {
	const timers = 1500
	s := NewScheduler()
	r := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(1+r.Intn(200)) * time.Microsecond
	}
	evs := make([]*Event, timers)
	fns := make([]func(), timers)
	k := 0
	for i := range fns {
		i := i
		fns[i] = func() {
			k++
			evs[i] = s.After(delays[k&4095], fns[i])
			j := (i*7 + k) % timers
			s.Cancel(evs[j])
			evs[j] = s.After(delays[(3*k)&4095], fns[j])
		}
	}
	for i := range evs {
		evs[i] = s.After(delays[i&4095], fns[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if s.Len() != timers {
		b.Fatalf("pending = %d, want %d", s.Len(), timers)
	}
}
