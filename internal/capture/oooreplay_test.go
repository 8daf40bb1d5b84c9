package capture

import (
	"fmt"
	"testing"

	"h2privacy/internal/simtime"
)

// TestOverlappingDrainTaintStable replays the historical map-iteration
// bug shape through dirStream.drain: randomized overlapping out-of-order
// chunks with mixed taint flags, unlocked by one in-order fill. For each
// of 32 seeds the reassembly is repeated 5 times in-process; the records'
// taint flags and the leftover out-of-order state must be identical every
// run and match the buffered reference — the taint of an overlapped byte
// is decided by whichever chunk supplies it first, so any order dependence
// diverges here.
func TestOverlappingDrainTaintStable(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		var want string
		for rep := 0; rep < 5; rep++ {
			rng := simtime.NewRand(seed)
			stream := recordStream(rng, 900)
			d, r := &dirStream{}, newRefDirStream()

			// Store 3–8 overlapping chunks, alternating taint by draw.
			nChunks := 3 + rng.Intn(6)
			for i := 0; i < nChunks; i++ {
				seq := 100 + rng.Intn(400)
				ln := 50 + rng.Intn(300)
				tainted := rng.Bool(0.5)
				d.ingest(uint64(seq), stream[seq:seq+ln], tainted)
				r.ingest(uint64(seq), stream[seq:seq+ln], tainted)
			}
			// The in-order fill makes several stored chunks applicable at
			// once — the exact shape that used to leak map order.
			fill := 100 + rng.Intn(400)
			d.ingest(0, stream[:fill], false)
			r.ingest(0, stream[:fill], false)

			taint := make([]byte, len(d.evs))
			for i, ev := range d.evs {
				taint[i] = '0'
				if ev.Tainted {
					taint[i] = '1'
				}
			}
			oooLeft := make([]uint64, 0, len(d.ooo))
			for _, c := range d.ooo {
				oooLeft = append(oooLeft, c.seq)
			}
			got := fmt.Sprintf("nextSeq=%d open=%d oooLeft=%v taint=%s", d.nextSeq, d.have, oooLeft, taint)
			if ref := fmt.Sprintf("%+v", r.parse()); ref != fmt.Sprintf("%+v", d.evs) {
				t.Fatalf("seed %d: records %s, reference %s", seed, fmt.Sprintf("%+v", d.evs), ref)
			}
			if rep == 0 {
				want = got
			} else if got != want {
				t.Fatalf("seed %d rep %d: reassembly diverged\n first: %s\n now:   %s", seed, rep, want, got)
			}
		}
	}
}
