// Package netsim models the network path between the client and the server:
// two unidirectional links with finite bandwidth, propagation delay, natural
// jitter and random loss, joined at a programmable middlebox. The middlebox
// is where the paper's adversary lives: it can observe every packet, delay
// individual packets (targeted jitter), throttle the link, and drop packets.
//
// netsim is transport-agnostic: packets carry an opaque payload (in this
// repository, a *tcpsim.Segment) plus a wire size. Reordering arises
// naturally when per-packet delays differ, which is exactly the mechanism
// the paper exploits (§IV-B).
package netsim

import "time"

// Direction identifies which way a packet is travelling on the path.
type Direction int

// Path directions.
const (
	ClientToServer Direction = iota + 1
	ServerToClient
)

// String returns a compact arrow notation used in traces.
func (d Direction) String() string {
	switch d {
	case ClientToServer:
		return "c->s"
	case ServerToClient:
		return "s->c"
	default:
		return "dir?"
	}
}

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction {
	if d == ClientToServer {
		return ServerToClient
	}
	return ClientToServer
}

// Packet is one unit of transmission on a link.
type Packet struct {
	// ID is unique per path and increases in send order.
	ID uint64
	// Dir is the packet's direction of travel.
	Dir Direction
	// Size is the on-the-wire size in bytes, including transport and
	// network headers. Serialization delay is Size/bandwidth.
	Size int
	// Payload is the transport payload; *tcpsim.Segment in this module.
	Payload any
	// SentAt is the virtual time the packet entered the link.
	SentAt time.Duration

	// refs counts pending scheduler references when the owning link has
	// packet recycling armed (Link.SetRecycle): the queue-drain entry, the
	// delivery entry and a possible duplicate delivery each hold one,
	// whether it sits in a lane or in an overtaking delivery's fallback
	// event. The struct (and its payload, via the release hook) goes back
	// on the link's free list, which the worker's links share, when the
	// count hits zero. Unused — always zero — on links without recycling.
	refs int
	// link is the member link of a FIFO bottleneck the packet crossed:
	// the shared drain lane serves every flow of a direction and hands
	// the packet back to this link when it drains.
	link *Link
}

// Verdict is a middlebox processor's decision about one packet.
type Verdict struct {
	// Drop discards the packet at the middlebox.
	Drop bool
	// ExtraDelay holds the packet back for the given duration before
	// forwarding. Differential delays reorder packets.
	ExtraDelay time.Duration
}

// Processor inspects and manipulates packets at the middlebox. Processors
// run in installation order; the first Drop wins and later processors do
// not see the packet. Delays accumulate.
type Processor interface {
	Process(now time.Duration, pkt *Packet) Verdict
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc func(now time.Duration, pkt *Packet) Verdict

var _ Processor = (ProcessorFunc)(nil)

// Process implements Processor.
func (f ProcessorFunc) Process(now time.Duration, pkt *Packet) Verdict {
	return f(now, pkt)
}

// Action classifies what happened to a packet at the middlebox/link.
type Action int

// Packet fates, reported to taps.
const (
	ActionForwarded     Action = iota + 1
	ActionDroppedLoss          // random link loss
	ActionDroppedPolicy        // dropped by a middlebox processor (the adversary)
	ActionDroppedQueue         // tail-dropped: link queue full
	ActionDroppedFault         // dropped by an injected fault (blackout, burst-loss episode)
)

// String names the action for traces.
func (a Action) String() string {
	switch a {
	case ActionForwarded:
		return "fwd"
	case ActionDroppedLoss:
		return "drop-loss"
	case ActionDroppedPolicy:
		return "drop-policy"
	case ActionDroppedQueue:
		return "drop-queue"
	case ActionDroppedFault:
		return "drop-fault"
	default:
		return "action?"
	}
}

// PacketEvent is delivered to taps for every packet that enters a link.
type PacketEvent struct {
	Now     time.Duration
	Pkt     *Packet
	Action  Action
	Arrival time.Duration // scheduled delivery time; zero when dropped
}

// Tap passively observes packets at the middlebox (the paper's traffic
// monitor). Taps must not mutate the packet.
type Tap interface {
	Observe(ev PacketEvent)
}

// Handler receives delivered packets at a path endpoint.
type Handler func(pkt *Packet)
