package tcpsim

import "h2privacy/internal/pool"

// segPool recycles the transport's two hot allocations — Segment
// structs and their payload buffers — through the worker's arena: the
// struct free list is the arena's (pool.Local), shared by every pair the
// worker builds in every trial it runs. NewPair wires its release method
// into netsim packet recycling, so a segment comes home when the last
// scheduled delivery of its packet fires (or the packet is dropped at the
// middlebox). Both endpoints of a pair share one segPool; a trial is
// single-threaded, so there is no locking.
type segPool struct {
	free  *pool.FreeList[Segment]
	arena *pool.Arena
}

// newSegPool binds a pair's segment pool to the worker's arena.
func newSegPool(arena *pool.Arena) *segPool {
	return &segPool{free: pool.Local[pool.FreeList[Segment]](arena), arena: arena}
}

// get returns a zeroed segment. Nil-safe: without a pool it simply
// allocates, which is the unpooled path's exact historical behaviour.
func (p *segPool) get() *Segment {
	if p == nil {
		return &Segment{}
	}
	return p.free.Get()
}

// release is the netsim payload release hook: the packet carrying seg
// has fired its last scheduled reference. Payload buffers go back to
// the arena, the struct onto the free list (zeroed there, so the
// recycled segment never resurrects the payload pointer). Non-segment
// payloads — netsim cross-traffic markers — are not ours to recycle.
func (p *segPool) release(payload any) {
	seg, ok := payload.(*Segment)
	if !ok {
		return
	}
	p.arena.Put(seg.Payload)
	p.free.Put(seg)
}
