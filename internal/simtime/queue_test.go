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

// diffHarness drives a Scheduler and a refQueue in lockstep with random
// operations. Every fired callback checks that it is the reference
// model's earliest event, and every operation compares Len().
type diffHarness struct {
	t      *testing.T
	s      *Scheduler
	ref    refQueue
	rng    *rand.Rand
	handle map[int]*Event // pending id -> handle
	id     map[*Event]int // pending handle -> id
	nextID int
	seq    uint64
	fired  int
	fireA  func(any)
}

func newDiffHarness(t *testing.T, seed int64) *diffHarness {
	h := &diffHarness{
		t:      t,
		s:      NewScheduler(),
		rng:    rand.New(rand.NewSource(seed)),
		handle: make(map[int]*Event),
		id:     make(map[*Event]int),
	}
	h.fireA = func(arg any) { h.fire(arg.(int)) }
	return h
}

// schedule arms one event at now+[0,20) ns, so ties are common, through
// At or AtArg at random.
func (h *diffHarness) schedule() {
	at := h.s.Now() + time.Duration(h.rng.Intn(20))
	id := h.nextID
	h.nextID++
	var ev *Event
	if h.rng.Intn(2) == 0 {
		ev = h.s.At(at, func() { h.fire(id) })
	} else {
		ev = h.s.AtArg(at, h.fireA, id)
	}
	h.handle[id] = ev
	h.id[ev] = id
	h.ref.add(refEvent{at: at, seq: h.seq, id: id})
	h.seq++
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

// cancelSome cancels the queue's root, its last slot or a random pending
// event; the first two are the heap's edge cases.
func (h *diffHarness) cancelSome() {
	q := &h.s.queue
	n := len(q.heap)
	if n == 0 {
		return
	}
	i := h.rng.Intn(n)
	switch h.rng.Intn(3) {
	case 0:
		i = 0
	case 1:
		i = n - 1
	}
	h.cancel(q.evs[q.heap[i].id])
}

func (h *diffHarness) fire(id int) {
	if len(h.ref) == 0 {
		h.t.Fatalf("event %d fired but the reference queue is empty", id)
	}
	want := h.ref.popMin()
	if want.id != id || h.s.Now() != want.at {
		h.t.Fatalf("fired event %d at %v, reference fires %d at %v", id, h.s.Now(), want.id, want.at)
	}
	ev := h.handle[id]
	delete(h.handle, id)
	delete(h.id, ev)
	h.fired++
	if h.rng.Intn(8) == 0 {
		h.s.Cancel(ev) // self-cancel inside the callback: a no-op
	}
	for n := h.rng.Intn(3); n > 0; n-- {
		h.schedule()
	}
	if h.rng.Intn(4) == 0 {
		h.cancelSome()
	}
	h.checkLen()
}

func (h *diffHarness) checkLen() {
	if h.s.Len() != len(h.ref) {
		h.t.Fatalf("Len() = %d, reference holds %d", h.s.Len(), len(h.ref))
	}
}

// step runs one operation chosen at random.
func (h *diffHarness) step() {
	switch op := h.rng.Intn(10); {
	case op < 4:
		h.schedule()
	case op < 5:
		h.cancelSome()
	case op < 8:
		pending := len(h.ref)
		if ran := h.s.Step(); ran != (pending > 0) {
			h.t.Fatalf("Step ran=%v with %d events pending", ran, pending)
		}
	case op < 9:
		deadline := h.s.Now() + time.Duration(h.rng.Intn(10))
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
	h.checkLen()
}

// budgetTrip arms a step budget a few events ahead and runs into it: the
// tripping event must be pushed back, not lost.
func (h *diffHarness) budgetTrip() {
	budget := h.s.Steps() + uint64(h.rng.Intn(4))
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
		h.checkLen()
	}()
	h.s.Run()
}

// TestSchedulerMatchesReferenceQueue is the differential test of the
// event queue: random interleavings of At/AtArg, Cancel (root, last
// slot, self inside a callback), Step, RunUntil and step-budget trips
// must fire exactly the reference model's (at, seq) order. Each run ends
// with an interrupt, whose pushed-back event and remaining queue must
// also match the model.
func TestSchedulerMatchesReferenceQueue(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 40; seed++ {
		h := newDiffHarness(t, seed)
		for i := 0; i < 3000; i++ {
			h.step()
		}
		// Grow the queue past one poll window, then interrupt mid-run.
		for len(h.ref) < pollEvery+200 {
			h.schedule()
		}
		h.s.SetInterrupt(func() bool { return true })
		h.s.Run()
		if !h.s.Interrupted() {
			t.Fatalf("seed %d: interrupt probe did not stop the run", seed)
		}
		h.checkLen()
		for len(h.s.queue.heap) > 0 {
			got := h.s.queue.pop()
			want := h.ref.popMin()
			if h.id[got] != want.id {
				t.Fatalf("seed %d: queue drains %d, reference %d", seed, h.id[got], want.id)
			}
		}
		total += h.fired
	}
	if total < 100_000 {
		t.Fatalf("only %d events fired; the interleavings are too thin", total)
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
