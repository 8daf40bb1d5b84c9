package tcpsim

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/simtime"
)

// Property: for any seed, loss rate up to 10%, heavy natural jitter
// (reordering) and any payload sizes, both directions deliver exactly the
// bytes written, in order, with no duplication — or the connection reports
// itself broken (it must never silently corrupt).
func TestDeliveryPropertyUnderLossAndReorder(t *testing.T) {
	f := func(seed int64, lossPct uint8, cliLen, srvLen uint16) bool {
		loss := float64(lossPct%10) / 100
		sched := simtime.NewScheduler()
		rng := simtime.NewRand(seed)
		path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: netsim.LinkConfig{
			BandwidthBps:  1e8,
			PropDelay:     2 * time.Millisecond,
			NaturalJitter: 4 * time.Millisecond, // enough to reorder
			LossProb:      loss,
		}}, instr.Bundle{})
		if err != nil {
			return false
		}
		pair, err := NewPair(sched, rng, path, Config{MaxRetries: 12}, instr.Bundle{})
		if err != nil {
			return false
		}
		cliData := patterned(int(cliLen), 3)
		srvData := patterned(int(srvLen), 7)
		var gotSrv, gotCli bytes.Buffer
		pair.Server.OnData(func(p []byte) { gotSrv.Write(p) })
		pair.Client.OnData(func(p []byte) { gotCli.Write(p) })
		pair.Open()
		sched.After(0, func() { _ = pair.Client.Write(cliData) })
		sched.After(time.Millisecond, func() { _ = pair.Server.Write(srvData) })
		sched.RunUntil(10 * time.Minute)

		broken := pair.Client.State() == StateBroken || pair.Server.State() == StateBroken
		if broken {
			// Acceptable outcome under loss; prefixes must still be clean.
			return bytes.HasPrefix(cliData, gotSrv.Bytes()) && bytes.HasPrefix(srvData, gotCli.Bytes())
		}
		return bytes.Equal(gotSrv.Bytes(), cliData) && bytes.Equal(gotCli.Bytes(), srvData)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: stats invariants hold on any run — retransmit counters are
// non-negative and bytes delivered never exceed bytes sent by the peer.
func TestStatsInvariantProperty(t *testing.T) {
	f := func(seed int64, srvLen uint16) bool {
		sched := simtime.NewScheduler()
		rng := simtime.NewRand(seed)
		path, err := netsim.NewPath(sched, rng, netsim.PathConfig{Link: netsim.LinkConfig{
			BandwidthBps:  1e7,
			PropDelay:     time.Millisecond,
			NaturalJitter: 2 * time.Millisecond,
			LossProb:      0.03,
		}}, instr.Bundle{})
		if err != nil {
			return false
		}
		pair, err := NewPair(sched, rng, path, Config{}, instr.Bundle{})
		if err != nil {
			return false
		}
		pair.Client.OnData(func([]byte) {})
		pair.Open()
		sched.After(0, func() { _ = pair.Server.Write(make([]byte, int(srvLen))) })
		sched.RunUntil(5 * time.Minute)
		ss, cs := pair.Server.Stats(), pair.Client.Stats()
		if ss.FastRetransmits < 0 || ss.TimeoutRetxSegs < 0 || ss.RTOExpiries < 0 {
			return false
		}
		if cs.BytesDelivered > ss.BytesSent {
			return false // delivered more unique bytes than were ever sent
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func patterned(n int, mul byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i) * mul
	}
	return p
}
