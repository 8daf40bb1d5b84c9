package tcpsim

import (
	"fmt"

	"h2privacy/internal/instr"
	"h2privacy/internal/netsim"
	"h2privacy/internal/pool"
	"h2privacy/internal/simtime"
)

// Pair is a client/server connection wired across a netsim.Path: the
// complete simulated transport under one browser↔webserver session.
type Pair struct {
	Client *Conn
	Server *Conn
}

// NewPair creates both endpoints over the path, instrumented from ins,
// installs the path delivery handlers, and returns them. The caller still
// invokes Server.Listen and Client.Connect (in that order) to open the
// connection.
func NewPair(sched *simtime.Scheduler, rng *simtime.Rand, path *netsim.Path, cfg Config, ins instr.Bundle) (*Pair, error) {
	if path == nil {
		return nil, fmt.Errorf("tcpsim: NewPair requires a path")
	}
	clientISS := uint64(rng.Intn(1 << 28))
	serverISS := uint64(rng.Intn(1 << 28))
	client, err := NewConn(sched, cfg, ins, "client", clientISS, func(seg *Segment) {
		path.Send(netsim.ClientToServer, seg.WireSize(), seg)
	})
	if err != nil {
		return nil, fmt.Errorf("tcpsim: client endpoint: %w", err)
	}
	server, err := NewConn(sched, cfg, ins, "server", serverISS, func(seg *Segment) {
		path.Send(netsim.ServerToClient, seg.WireSize(), seg)
	})
	if err != nil {
		return nil, fmt.Errorf("tcpsim: server endpoint: %w", err)
	}
	path.Connect(
		func(pkt *netsim.Packet) { server.Deliver(segmentOf(pkt)) },
		func(pkt *netsim.Packet) { client.Deliver(segmentOf(pkt)) },
	)
	if cfg.Pool != nil {
		// One segment pool for both endpoints, recycled through netsim
		// packet delivery over the worker's Segment and Packet lists: a
		// segment (and its arena payload) comes home when its packet's
		// last scheduled delivery fires or it is dropped at the
		// middlebox. Consumers on that path — endpoints, the capture
		// monitor, the adversary — never retain segments past their
		// callbacks.
		sp := newSegPool(cfg.Pool)
		client.segs, server.segs = sp, sp
		path.SetRecycle(pool.Local[pool.FreeList[netsim.Packet]](cfg.Pool), sp.release)
	}
	// Cross-link the endpoints so the checker can verify that every byte a
	// side delivers was actually sent by its peer.
	ins.Check.TCPPeers("client", "server")
	return &Pair{Client: client, Server: server}, nil
}

// Open performs Listen+Connect, starting the three-way handshake.
func (p *Pair) Open() {
	p.Server.Listen()
	p.Client.Connect()
}

// segmentOf extracts the TCP segment from a delivered packet. Non-segment
// payloads (netsim cross-traffic) are ignored: they share the pipe, not
// the connection. Deliver tolerates the resulting nil.
func segmentOf(pkt *netsim.Packet) *Segment {
	seg, _ := pkt.Payload.(*Segment)
	return seg
}
