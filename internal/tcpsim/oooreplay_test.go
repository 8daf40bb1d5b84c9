package tcpsim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"h2privacy/internal/simtime"
)

// bufferChunks loads chunks into c's out-of-order buffer the way
// processData keeps it: one entry per seq, ascending.
func bufferChunks(c *Conn, chunks map[uint64][]byte) {
	for seq, buf := range chunks {
		c.ooo = append(c.ooo, oooChunk{seq: seq, buf: buf})
		c.oooBytes += len(buf)
	}
	slices.SortFunc(c.ooo, func(a, b oooChunk) int { return cmp.Compare(a.seq, b.seq) })
}

// TestOverlappingOOOGranularityStable replays the shape of the historical
// map-iteration bug through drainOutOfOrder: randomized sets of mutually
// overlapping out-of-order chunks, unlocked by one in-order fill. For each
// of 32 seeds the drain is repeated 5 times in-process; the delivery
// granularity (the exact sequence of onData payload sizes) and the final
// receive state must be identical every time. A drain order that leaks Go
// map iteration order fails this within a few seeds.
func TestOverlappingOOOGranularityStable(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		var want string
		for rep := 0; rep < 5; rep++ {
			rng := simtime.NewRand(seed)
			c := &Conn{}
			var calls []int
			c.onData = func(p []byte) { calls = append(calls, len(p)) }

			// 3–8 chunks whose spans overlap aggressively: starts drawn
			// from a narrow window, lengths long enough to nest and chain.
			chunks := make(map[uint64][]byte)
			nChunks := 3 + rng.Intn(6)
			for i := 0; i < nChunks; i++ {
				seq := uint64(100 + rng.Intn(400))
				ln := 50 + rng.Intn(300)
				chunks[seq] = make([]byte, ln)
			}
			bufferChunks(c, chunks)
			// The in-order fill lands somewhere inside the chunk window, so
			// several chunks become applicable at once.
			c.rcvNxt = uint64(100 + rng.Intn(400))
			c.drainOutOfOrder()

			got := fmt.Sprintf("calls=%v rcvNxt=%d oooLeft=%d oooBytes=%d",
				calls, c.rcvNxt, len(c.ooo), c.oooBytes)
			if rep == 0 {
				want = got
			} else if got != want {
				t.Fatalf("seed %d rep %d: drain diverged\n first: %s\n now:   %s", seed, rep, want, got)
			}
		}
	}
}
