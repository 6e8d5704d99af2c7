// Package transport is the message-passing substrate the replication
// protocols run on when they leave the simulator. It has three layers:
//
//   - contract.go defines the actor contract — Handler, Env, Message,
//     TimerID — that every protocol node is written against. The
//     simulator (internal/sim) aliases these types, so the exact same
//     protocol code runs on the deterministic virtual cluster and on a
//     real network without modification: the contract is the seam the
//     ISSUE's "simulator to wire" transition pivots on.
//
//   - Runtime (runtime.go) hosts protocol nodes off-sim. A node runs on
//     execution domains: domain 0 is its serial actor loop, and a
//     ShardedHandler's shard k is domain 1+k (sharded.go). Every domain
//     is the same loop — one goroutine, an unbounded FIFO mailbox, real
//     timers and a deterministic random source — preserving within the
//     domain the single-threaded handler discipline the protocols
//     assume. Env.Domain tells an invocation which domain it runs on;
//     the simulator hosts every node in domain 0.
//
//   - Loopback (loopback.go) connects runtimes in-process — every
//     transport test runs without opening a socket — while TCP (tcp.go)
//     connects them over real connections with length-prefixed binary
//     framing, per-peer send queues, reconnection backoff from
//     internal/resilience, and a transport-level heartbeat on each link
//     with nothing else to carry, every arriving frame feeding the
//     phi-accrual failure detector with real arrival times.
package transport

import (
	"math/rand"
	"time"
)

// Message is any protocol payload exchanged between nodes. Payloads must
// be treated as immutable once sent: in-process transports deliver the
// same value they were handed, the TCP transport delivers a decoded copy.
// Types that cross a real wire implement BinaryMessage and register their
// decoder with RegisterBinary.
type Message any

// TimerID identifies a pending timer for cancellation.
type TimerID uint64

// Handler is the behaviour of a node. Implementations are invoked
// single-threaded by whichever substrate hosts them (the simulator's
// event loop or a Runtime's serial loop), so state touched only by the
// handler needs no locking; a ShardedHandler is invoked single-threaded
// per execution domain.
type Handler interface {
	// OnStart runs when the node boots, and again after each restart.
	OnStart(env Env)
	// OnMessage delivers a message sent by node from.
	OnMessage(env Env, from string, msg Message)
	// OnTimer fires a timer previously set through the Env.
	OnTimer(env Env, tag any)
}

// Env is the interface a running node uses to interact with the world.
// An Env is only valid during the handler invocation it was passed to.
type Env interface {
	// ID returns the node's own identifier.
	ID() string
	// Now returns the current time on the substrate's clock: virtual
	// time under the simulator, time since runtime start on a real
	// transport. Either way it is monotone and starts near zero, which
	// is all the protocols (and the failure detectors) rely on.
	Now() time.Duration
	// Send queues a message for delivery to node to. Delivery is
	// asynchronous and may fail silently (network loss, partitions,
	// crashed peers); protocols own their retries.
	Send(to string, msg Message)
	// SetTimer schedules OnTimer(tag) after d. It returns a TimerID that
	// can cancel the timer. Timers are discarded if the node crashes.
	SetTimer(d time.Duration, tag any) TimerID
	// Cancel stops a pending timer. Cancelling an already-fired or
	// already-cancelled timer is a no-op.
	Cancel(id TimerID)
	// Rand returns the node's deterministic random source. Handlers
	// must only use it synchronously inside the current invocation.
	Rand() *rand.Rand
	// Domain names the execution domain the invocation runs on: 0 for
	// the node's serial loop, 1+k for shard k of a ShardedHandler.
	// State confined to a domain (a journal buffer, a barrier's queue)
	// is indexed by it.
	Domain() int
	// Heartbeats reports whether the substrate keeps the failure detector
	// fed on every link by itself: it heartbeats each link that has
	// nothing else to carry and observes every frame that arrives (the TCP
	// transport given a Directory). A protocol then sends no liveness
	// pings of its own. The simulator and Loopback report false: there
	// the detector sees only the messages the protocols send.
	Heartbeats() bool
}
