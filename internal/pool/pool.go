// Package pool is the trial-scoped memory arena behind the sweep
// engine's allocation budget. A worker goroutine owns one Arena and
// reuses it across all the trials it runs: hot paths that used to
// allocate a fresh []byte per TCP segment, TLS record or reassembly
// step rent buffers from the arena instead, return them when the
// object graph releases them (netsim packet delivery is the natural
// release point for segment payloads). The arena also holds the worker's
// other long-lived state, one value per type (Local): the struct free
// lists that every flow on the worker shares (netsim Packets, tcpsim
// Segments) and the fleet's decoy catalogs. Buffers and that state alike
// survive the trial boundary, so the second trial on a worker runs
// nearly allocation-free, and go with the arena when its sweep ends.
//
// The contract, in order of importance:
//
//   - Determinism first. The arena only changes *where* bytes live,
//     never what they contain or when callbacks run. Buffers are
//     handed out with exact length and no promise about contents
//     beyond what the caller writes (callers always overwrite the
//     full length). Byte-identity of every exported artifact at any
//     worker count is pinned by tests with pooling armed.
//   - Nil is free. Like trace/check/flowseq/perf, a nil *Arena is the
//     disabled path: Bytes falls back to make, Put drops the buffer,
//     Reset and SetPoison no-op. Code threads the arena through
//     without branching on "pooling enabled".
//   - Single-goroutine. An Arena is owned by one worker; there is no
//     locking. Cross-worker sharing is a bug (and -race would say so,
//     since Stats counters are plain ints).
//   - Reset at trial boundaries keeps the free lists — that retention
//     is the whole point — and only rolls the per-trial stats over.
//     Buffers still referenced by an abandoned trial object graph are
//     simply never returned; the GC reclaims them, so a leak is a
//     missed optimization, never a correctness hazard.
//
// Poison mode (SetPoison) scribbles returned buffers before they can
// be handed out again, so a use-after-Put — the one bug class pooling
// can introduce — corrupts loudly and deterministically instead of
// silently surviving. The correctness tests run entire attack trials
// with poisoning armed and require byte-identical reports.
package pool

// Size classes are powers of two from 64 B to 64 KiB. Everything the
// simulator rents lives comfortably in this range: TCP payloads cap at
// MSS (1460), TLS records at payload+header+tag, h2 frames at the
// 16 KiB default max frame size. Requests above the top class fall
// back to plain make and are dropped on Put (they would only pin
// memory across trials).
const (
	minClassBits = 6  // 64 B
	maxClassBits = 16 // 64 KiB
	numClasses   = maxClassBits - minClassBits + 1
)

const poisonByte = 0xDB

// Stats counts arena traffic since the last Reset (per-trial) and
// since creation (lifetime Recycled), so the allocation-budget tests
// and the bench record can report reuse rates.
type Stats struct {
	// Gets counts Bytes calls; Hits counts the subset served from a
	// free list (no allocation). Puts counts buffers returned;
	// Oversize counts requests above the top size class (always
	// allocated, never retained).
	Gets     int
	Hits     int
	Puts     int
	Oversize int
}

// Arena is a size-classed []byte recycler owned by one worker
// goroutine. The zero value is ready to use; a nil *Arena disables
// pooling (Bytes = make, Put = drop).
type Arena struct {
	classes [numClasses][][]byte
	locals  []any // one *T per type T (see Local)
	poison  bool
	stats   Stats
	trials  int
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// classFor returns the smallest size-class index whose capacity holds
// n, or -1 when n exceeds the top class.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for n > 1<<(minClassBits+c) {
		c++
	}
	return c
}

// Bytes rents a buffer of exactly length n. The contents are
// unspecified (poison mode guarantees they are NOT zero); every caller
// overwrites the full n bytes. A nil arena, or n above the top size
// class, falls back to plain make.
func (a *Arena) Bytes(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	a.stats.Gets++
	c := classFor(n)
	if c < 0 {
		a.stats.Oversize++
		return make([]byte, n)
	}
	// Search upward from the smallest fitting class: a larger recycled
	// buffer serves a smaller request fine (Put re-classes by capacity
	// on return, so nothing degrades).
	for cls := c; cls < numClasses; cls++ {
		if list := a.classes[cls]; len(list) > 0 {
			b := list[len(list)-1]
			a.classes[cls] = list[:len(list)-1]
			a.stats.Hits++
			return b[:n]
		}
	}
	return make([]byte, n, 1<<(minClassBits+c))
}

// Put returns a buffer to the free list of the largest class its
// capacity fills. Undersized (below the bottom class) or oversized
// buffers are dropped. The caller must not touch b afterwards — with
// poison mode armed, the arena scribbles it immediately.
func (a *Arena) Put(b []byte) {
	if a == nil || b == nil {
		return
	}
	c := cap(b)
	if c < 1<<minClassBits || c > 1<<maxClassBits {
		return
	}
	// Largest class that c fully covers: the buffer may later be
	// handed out at any length up to the class size.
	cls := 0
	for cls+1 < numClasses && c >= 1<<(minClassBits+cls+1) {
		cls++
	}
	b = b[:1<<(minClassBits+cls)]
	if a.poison {
		for i := range b {
			b[i] = poisonByte
		}
	}
	a.stats.Puts++
	a.classes[cls] = append(a.classes[cls], b)
}

// Reset marks a trial boundary: free lists are KEPT (cross-trial reuse
// is the arena's purpose), per-trial accounting rolls over. Safe on
// nil.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.trials++
	a.stats = Stats{}
}

// SetPoison arms or disarms buffer poisoning. With poisoning on, every
// returned buffer is filled with 0xDB before it can be reused, so any
// reader holding a stale reference sees garbage deterministically.
// Safe on nil.
func (a *Arena) SetPoison(on bool) {
	if a == nil {
		return
	}
	a.poison = on
}

// Stats returns the per-trial traffic counters (since the last Reset).
// A nil arena reports zeros.
func (a *Arena) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return a.stats
}

// Trials returns how many Reset boundaries this arena has crossed.
func (a *Arena) Trials() int {
	if a == nil {
		return 0
	}
	return a.trials
}

// FreeList recycles fixed-shape structs (netsim Packets, tcpsim
// Segments) the way the scheduler free-lists fired events; an arena
// holds one per struct type (Local[FreeList[T]]). Get pops a
// recycled value or allocates; Put zeroes the value — dropping every
// reference it held, so recycled structs never resurrect old pointers
// — and pushes it. Owned by one goroutine; nil-safe.
type FreeList[T any] struct {
	free []*T
}

// Get returns a zeroed *T, recycled when possible. A nil free list
// always allocates.
func (f *FreeList[T]) Get() *T {
	if f == nil || len(f.free) == 0 {
		return new(T)
	}
	v := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	return v
}

// Local returns the arena's one value of type T, zero on first use.
// Every caller on the worker that asks for the same T gets the same
// value and Reset keeps it, so a Local[FreeList[T]] recycles T structs
// across flows and trials. A nil arena returns nil: a nil FreeList
// allocates on Get and drops on Put. The lookup scans one entry per
// type; callers make it once, at build, and keep the pointer.
func Local[T any](a *Arena) *T {
	if a == nil {
		return nil
	}
	for _, v := range a.locals {
		if p, ok := v.(*T); ok {
			return p
		}
	}
	p := new(T)
	a.locals = append(a.locals, p)
	return p
}

// Put zeroes v and retains it for the next Get. Nil-safe (drops v).
func (f *FreeList[T]) Put(v *T) {
	if f == nil || v == nil {
		return
	}
	var zero T
	*v = zero
	f.free = append(f.free, v)
}

// Len reports how many values are parked on the free list.
func (f *FreeList[T]) Len() int {
	if f == nil {
		return 0
	}
	return len(f.free)
}
