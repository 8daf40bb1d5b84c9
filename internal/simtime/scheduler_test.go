package simtime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestSchedulerTiesFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestSchedulerAfterRelative(t *testing.T) {
	s := NewScheduler()
	var fired time.Duration
	s.At(5*time.Millisecond, func() {
		s.After(7*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 12*time.Millisecond {
		t.Fatalf("After fired at %v, want 12ms", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	ev := s.At(time.Millisecond, func() { ran = true })
	s.Cancel(ev)
	s.Cancel(ev) // double cancel is a no-op
	s.Cancel(nil)
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestSchedulerCancelDuringRun(t *testing.T) {
	s := NewScheduler()
	ran := false
	var ev *Event
	s.At(1*time.Millisecond, func() { s.Cancel(ev) })
	ev = s.At(2*time.Millisecond, func() { ran = true })
	s.Run()
	if ran {
		t.Fatal("event cancelled mid-run still ran")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var count int
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.RunUntil(3 * time.Millisecond)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
	if s.Len() != 2 {
		t.Fatalf("pending = %d, want 2", s.Len())
	}
	// RunUntil advances the clock even with no events in range.
	s.RunUntil(10 * time.Millisecond)
	if count != 5 || s.Now() != 10*time.Millisecond {
		t.Fatalf("count=%d now=%v, want 5, 10ms", count, s.Now())
	}
}

func TestSchedulerRunWhile(t *testing.T) {
	s := NewScheduler()
	var count int
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.RunWhile(func() bool { return count < 4 })
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(5*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(time.Millisecond, func() {})
	})
	s.Run()
}

func TestSchedulerNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	NewScheduler().At(0, nil)
}

// Property: for any set of (time, id) pairs, execution order is sorted by
// time with ties in insertion order.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := NewScheduler()
		type rec struct {
			at  time.Duration
			seq int
		}
		var got []rec
		for i, d := range delays {
			at := time.Duration(d) * time.Microsecond
			i := i
			s.At(at, func() { got = append(got, rec{at, i}) })
		}
		s.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerRecyclesFiredEvents pins the free-list contract: a timer
// chain (each callback scheduling its successor) reuses fired Event
// structs instead of allocating one per event.
func TestSchedulerRecyclesFiredEvents(t *testing.T) {
	s := NewScheduler()
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		var tick func()
		tick = func() {
			n++
			if n%100 != 0 {
				s.After(time.Microsecond, tick)
			}
		}
		s.After(time.Microsecond, tick)
		s.Run()
	})
	// Each run fires 100 chained events; without recycling that is ≥100
	// allocations. With the free list the chain reuses one struct.
	if allocs > 5 {
		t.Fatalf("chained events allocate %.1f per 100 fires, want ≤5 (free list broken)", allocs)
	}
}

// TestSchedulerCancelledEventsNotRecycled pins the safety half of the
// free-list design: a cancelled event's struct is never pooled, so the
// documented double-Cancel no-op can not kill an unrelated reused event.
func TestSchedulerCancelledEventsNotRecycled(t *testing.T) {
	s := NewScheduler()
	cancelled := s.At(time.Millisecond, func() { t.Fatal("cancelled event ran") })
	s.Cancel(cancelled)
	ran := false
	keep := s.At(2*time.Millisecond, func() { ran = true })
	// If Cancel had recycled, this second Cancel of the stale handle could
	// have removed `keep` (had the struct been reused). It must be a no-op.
	s.Cancel(cancelled)
	if !s.queue.queued(keep) || s.Len() != 1 {
		t.Fatal("double-Cancel of a cancelled event killed a live event")
	}
	s.Run()
	if !ran {
		t.Fatal("live event did not run")
	}
}

// TestSchedulerReuseKeepsOrdering runs a workload that constantly fires
// and reschedules and checks the (time, seq) ordering property holds
// across recycled structs.
func TestSchedulerReuseKeepsOrdering(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	var reschedule func(step int)
	reschedule = func(step int) {
		fired = append(fired, s.Now())
		if step < 500 {
			s.After(time.Duration(step%7)*time.Microsecond, func() { reschedule(step + 1) })
		}
	}
	s.After(0, func() { reschedule(0) })
	s.Run()
	if len(fired) != 501 {
		t.Fatalf("fired %d events, want 501", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("time went backwards at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

// BenchmarkSchedulerChurn measures the timer-chain hot path the trials
// exercise (RTO/delayed-ACK/retry timers rescheduling from their own
// callbacks): 1000 chained schedule+fire cycles per iteration. Before the
// event free list this allocated one Event per fire (~1000 allocs/op);
// with it the chain runs allocation-free after warm-up.
func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var n int
		var tick func()
		tick = func() {
			n++
			if n < 1000 {
				s.After(time.Microsecond, tick)
			}
		}
		s.After(time.Microsecond, tick)
		s.Run()
		if n != 1000 {
			b.Fatal("missed events")
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Int63() == NewRand(2).Int63() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestRandUniformBounds(t *testing.T) {
	r := NewRand(7)
	lo, hi := 10*time.Millisecond, 20*time.Millisecond
	for i := 0; i < 1000; i++ {
		d := r.Uniform(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	if got := r.Uniform(hi, lo); got != hi {
		t.Fatalf("inverted range: got %v, want lo %v", got, hi)
	}
}

func TestRandBoolEdges(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

func TestRandDistributionsNonNegative(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 1000; i++ {
		if d := r.Exponential(time.Millisecond); d < 0 || d > 20*time.Millisecond {
			t.Fatalf("Exponential out of bounds: %v", d)
		}
		if d := r.LogNormal(time.Millisecond, 0.5); d < 0 || d > 50*time.Millisecond {
			t.Fatalf("LogNormal out of bounds: %v", d)
		}
	}
	if r.Exponential(0) != 0 || r.LogNormal(0, 1) != 0 {
		t.Fatal("zero-mean distributions must return 0")
	}
}

func TestRandForkIndependence(t *testing.T) {
	a := NewRand(5)
	fork := a.Fork()
	// Draws from the fork must not affect the parent's future sequence
	// relative to a parent that forked but never used the fork.
	b := NewRand(5)
	b.Fork()
	for i := 0; i < 10; i++ {
		fork.Float64()
	}
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("fork draws perturbed parent sequence")
		}
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(8)
	seen := make(map[int]bool, 8)
	for _, v := range p {
		if v < 0 || v >= 8 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestSchedulerAtArg pins the pre-bound-callback form: AtArg events
// interleave with At events in the same (time, seq) order, the argument
// round-trips, and recycled structs never leak a stale fn/fnA pair.
func TestSchedulerAtArg(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.AtArg(20*time.Millisecond, func(v any) { got = append(got, v.(int)) }, 2)
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.AfterArg(30*time.Millisecond, func(v any) { got = append(got, v.(int)) }, 3)
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

// TestSchedulerAtArgRecycling drives a chain that alternates At and
// AtArg through the free list: a recycled AtArg struct re-armed via At
// (and vice versa) must dispatch the right variant.
func TestSchedulerAtArgRecycling(t *testing.T) {
	s := NewScheduler()
	var n int
	var tickArg func(any)
	var tick func()
	tickArg = func(v any) {
		n += v.(int)
		if n < 100 {
			s.AfterArg(time.Microsecond, tickArg, 1)
		}
	}
	tick = func() {
		n++
		if n < 100 {
			if n%2 == 0 {
				s.AfterArg(time.Microsecond, tickArg, 1)
			} else {
				s.After(time.Microsecond, tick)
			}
		}
	}
	s.After(time.Microsecond, tick)
	s.Run()
	if n != 100 {
		t.Fatalf("n = %d, want 100", n)
	}
}

// TestSchedulerAtArgAllocs pins that the AtArg form with a pre-bound
// method value and recycled events stays allocation-free in steady
// state (the closure the At form would build is the allocation the
// netsim hot path saves).
func TestSchedulerAtArgAllocs(t *testing.T) {
	s := NewScheduler()
	var n int
	sink := func(any) { n++ }
	var arg any = 7 // pre-boxed so the measurement sees no interface conversion
	// Warm the free list.
	s.AfterArg(time.Microsecond, sink, arg)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.AfterArg(time.Microsecond, sink, arg)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("AtArg with warmed free list allocates %.1f per event, want 0", allocs)
	}
}

// TestStepBudgetTripsSelfReschedulingLoop is the watchdog regression
// test: a timer callback that always reschedules itself would run Run()
// forever; with a step budget armed the scheduler must panic with a
// typed *BudgetError at exactly the budgeted event count — an error, not
// a hang.
func TestStepBudgetTripsSelfReschedulingLoop(t *testing.T) {
	s := NewScheduler()
	s.SetStepBudget(10_000)
	var spins int
	var spin func()
	spin = func() {
		spins++
		s.After(time.Microsecond, spin)
	}
	s.After(0, spin)
	defer func() {
		r := recover()
		be, ok := r.(*BudgetError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *BudgetError", r, r)
		}
		if be.Steps != 10_000 {
			t.Fatalf("budget tripped at %d steps, want exactly 10000", be.Steps)
		}
		if spins != 10_000 {
			t.Fatalf("callback ran %d times before the trip, want 10000", spins)
		}
		if s.Steps() != 10_000 {
			t.Fatalf("Steps() = %d after the trip, want 10000", s.Steps())
		}
	}()
	s.Run()
	t.Fatal("Run returned: the self-rescheduling loop drained without tripping the budget")
}

// TestStepBudgetInvisibleUnderBudget pins that an armed-but-untripped
// budget changes nothing: same firing order, same clock, no panic. This
// is the supervision invisibility contract at the scheduler layer.
func TestStepBudgetInvisibleUnderBudget(t *testing.T) {
	run := func(budget uint64) ([]int, time.Duration) {
		s := NewScheduler()
		if budget > 0 {
			s.SetStepBudget(budget)
		}
		var got []int
		s.At(30*time.Millisecond, func() { got = append(got, 3) })
		s.At(10*time.Millisecond, func() { got = append(got, 1) })
		s.At(20*time.Millisecond, func() { got = append(got, 2) })
		s.Run()
		return got, s.Now()
	}
	plain, plainNow := run(0)
	budgeted, budgetedNow := run(1 << 20)
	if len(plain) != len(budgeted) || plainNow != budgetedNow {
		t.Fatalf("budgeted run diverged: %v@%v vs %v@%v", budgeted, budgetedNow, plain, plainNow)
	}
	for i := range plain {
		if plain[i] != budgeted[i] {
			t.Fatalf("budgeted run reordered events: %v vs %v", budgeted, plain)
		}
	}
}

// TestInterruptStopsRunCooperatively: the interrupt probe stops the run
// loops at a poll boundary with events still queued, without panicking —
// the cooperative-cancellation path a context wires into.
func TestInterruptStopsRunCooperatively(t *testing.T) {
	s := NewScheduler()
	stop := false
	s.SetInterrupt(func() bool { return stop })
	var fired int
	var spin func()
	spin = func() {
		fired++
		if fired == 2*pollEvery {
			stop = true
		}
		s.After(time.Microsecond, spin)
	}
	s.After(0, spin)
	s.RunUntil(time.Hour)
	if !s.Interrupted() {
		t.Fatal("scheduler did not report Interrupted after the probe fired")
	}
	if fired > 3*pollEvery {
		t.Fatalf("run kept stepping %d events after the interrupt, want a stop within one poll window", fired)
	}
	if s.Len() == 0 {
		t.Fatal("interrupt drained the queue; it must stop with pending events intact")
	}
	if s.Step() {
		t.Fatal("Step ran an event after interruption")
	}
}

// TestTimerResetStopAllocs pins that re-arming and stopping a Timer —
// the transport's per-ACK RTO/PTO work — allocates nothing, including
// when it fires and is re-armed from its own callback.
func TestTimerResetStopAllocs(t *testing.T) {
	s := NewScheduler()
	var rto, pto Timer
	fires := 0
	rto.Init(s, func() { fires++ })
	pto.Init(s, func() { fires++; pto.Reset(s.Now() + time.Millisecond) })
	pto.Reset(time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		rto.Reset(s.Now() + 3*time.Millisecond)
		pto.Reset(s.Now() + 2*time.Millisecond)
		rto.Reset(s.Now() + 4*time.Millisecond) // re-key while pending
		rto.Stop()
		rto.Stop() // stopped: a no-op
		s.RunUntil(s.Now() + 2*time.Millisecond)
	})
	if allocs > 0 {
		t.Fatalf("Timer Reset/Stop allocates %.1f per cycle, want 0", allocs)
	}
	if fires == 0 || !pto.Pending() || rto.Pending() {
		t.Fatalf("fires=%d pto pending=%v rto pending=%v", fires, pto.Pending(), rto.Pending())
	}
}

// TestLaneAllocs pins that a warmed lane appends and fires without
// allocating, in order and through the out-of-order fallback.
func TestLaneAllocs(t *testing.T) {
	s := NewScheduler()
	var lane Lane
	n := 0
	lane.Init(s, func(any) { n++ })
	var arg any = 7
	cycle := func() {
		now := s.Now()
		lane.At(now+3, arg)
		lane.At(now+5, arg)
		lane.At(now+4, arg) // behind the tail: AtArg fallback
		s.Run()
	}
	cycle() // warm the free lists
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("warmed lane allocates %.1f per cycle, want 0", allocs)
	}
	// Our warm-up cycle, AllocsPerRun's own warm-up run and 100 runs.
	if want := 3 * 102; n != want {
		t.Fatalf("lane fired %d events, want %d", n, want)
	}
}

// BenchmarkSchedulerLane measures a link-shaped load: a serializer drain
// and a delivery per packet, about 500 packets in flight, each delivery
// sending the next packet, and one packet in 50 delayed by three
// serialization times, so the next two deliveries overtake it and take
// the lane's AtArg fallback. The lane case keeps
// the two streams on Lanes; the atarg case schedules every event through
// AtArg, as netsim did before lanes. One op is one fired event.
func BenchmarkSchedulerLane(b *testing.B) {
	const (
		inFlight = 500
		tx       = 12 * time.Microsecond // 1500 B at 1 Gbps
		prop     = inFlight * tx
	)
	run := func(b *testing.B, useLanes bool) {
		s := NewScheduler()
		var drainLane, deliverLane Lane
		var busy time.Duration
		k := 0
		drained := func(any) {}
		var send func()
		delivered := func(any) { send() }
		drainLane.Init(s, drained)
		deliverLane.Init(s, delivered)
		send = func() {
			k++
			start := s.Now()
			if busy > start {
				start = busy
			}
			busy = start + tx
			arrival := busy + prop
			if k%50 == 0 {
				arrival += 3 * tx
			}
			if useLanes {
				drainLane.At(busy, nil)
				deliverLane.At(arrival, nil)
			} else {
				s.AtArg(busy, drained, nil)
				s.AtArg(arrival, delivered, nil)
			}
		}
		for i := 0; i < inFlight; i++ {
			send()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	}
	b.Run("lane", func(b *testing.B) { run(b, true) })
	b.Run("atarg", func(b *testing.B) { run(b, false) })
}

// BenchmarkTimerReset measures re-arming one of 1500 pending timers, the
// per-ACK RTO re-arm at fleet depth. The timer case re-keys a Timer in
// place; the cancel-after case is the Cancel plus After it replaces. One
// op is one re-arm.
func BenchmarkTimerReset(b *testing.B) {
	const timers = 1500
	r := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(1+r.Intn(200)) * time.Microsecond
	}
	noop := func() {}
	b.Run("timer", func(b *testing.B) {
		s := NewScheduler()
		ts := make([]Timer, timers)
		for i := range ts {
			ts[i].Init(s, noop)
			ts[i].Reset(delays[i&4095])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts[(i*7)%timers].Reset(delays[i&4095])
		}
	})
	b.Run("cancel-after", func(b *testing.B) {
		s := NewScheduler()
		evs := make([]*Event, timers)
		for i := range evs {
			evs[i] = s.After(delays[i&4095], noop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := (i * 7) % timers
			s.Cancel(evs[j])
			evs[j] = s.After(delays[i&4095], noop)
		}
	})
}
