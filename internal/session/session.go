// Package session implements Terry et al.'s session guarantees (Bayou) —
// the tutorial's "shades between eventual and strong" tier: Read Your
// Writes, Monotonic Reads, Writes Follow Reads, and Monotonic Writes,
// enforced per client session over a weakly consistent replicated server
// group.
//
// Servers replicate writes by anti-entropy (per-origin ordered logs with
// version-vector exchange, as in Bayou). A session tracks two vectors —
// what it has written and what it has read — and each operation names the
// minimum vector its target server must dominate; servers block the
// request until they catch up (or time it out). The session lives with
// its client: a simulator Client sends its requests to a server as
// messages, and a client of a live node hands its Token to the node,
// which serves the operation in place (Server.Read, Server.Write).
// Experiment E8 measures the anomaly rates the guarantees eliminate and
// the latency they cost.
package session

import (
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// WriteID identifies a write: the n-th write accepted by a server.
type WriteID struct {
	Origin string
	Seq    uint64
}

// write is one replicated update.
type write struct {
	ID      WriteID
	Key     string
	Val     []byte
	Deleted bool
	// TS orders writes for last-writer-wins value resolution (Lamport
	// time at the accepting server, tie-broken by server id).
	TS struct {
		Time uint64
		Node string
	}
	// Client/CliSeq name the client request that produced this write, so
	// every replica — not just the accepting server — can recognize a
	// retried request it has already seen applied (the at-most-once
	// token; zero values on writes from non-resilient clients).
	Client string
	CliSeq uint64
}

func tsLess(a, b write) bool {
	if a.TS.Time != b.TS.Time {
		return a.TS.Time < b.TS.Time
	}
	return a.TS.Node < b.TS.Node
}

// Protocol messages.
type (
	// aeReq opens anti-entropy: "here is what I have".
	aeReq struct {
		V clock.Vector
	}
	// aeResp returns the writes the requester is missing, in per-origin
	// order.
	aeResp struct {
		Writes []write
	}
	// sread is a session read carrying the guarantee floor.
	sread struct {
		ID     uint64
		Key    string
		MinVec clock.Vector
	}
	sreadResp struct {
		ID       uint64
		Key      string
		Val      []byte
		OK       bool
		V        clock.Vector
		TimedOut bool
	}
	// swrite is a session write carrying the guarantee floor.
	swrite struct {
		ID      uint64
		Key     string
		Val     []byte
		Deleted bool
		MinVec  clock.Vector
	}
	swriteResp struct {
		ID       uint64
		WID      WriteID
		V        clock.Vector
		TimedOut bool
	}
)

// Size implements the sim bandwidth hook.
func (m aeResp) Size() int {
	n := 0
	for _, w := range m.Writes {
		n += w.wireSize()
	}
	return n
}

// wireSize estimates the write's serialized size.
func (w write) wireSize() int { return len(w.Key) + len(w.Val) + 24 }

// maxAEBytes bounds the writes one aeResp carries, well under
// transport.MaxFrameSize: a replica far behind its peers catches up over
// several anti-entropy rounds instead of in one frame the transport
// refuses.
const maxAEBytes = transport.MaxFrameSize / 4

// ServerConfig configures a session server.
type ServerConfig struct {
	// Peers lists the other servers.
	Peers []string
	// AntiEntropyInterval is the gossip period (default 50ms).
	AntiEntropyInterval time.Duration
	// BlockTimeout bounds how long a guarantee-blocked request waits
	// before failing (default 2s).
	BlockTimeout time.Duration
	// Persist, when set, journals every appended write before its ack is
	// sent (the durability hook the server runtime wires to its WAL). It
	// runs on the server's actor loop.
	Persist func(rec []byte)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 50 * time.Millisecond
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 2 * time.Second
	}
	return c
}

// request is one session operation at this server. A client actor's
// request is a message, answered by a message to its address from. An
// operation a client in this process started in place (Server.Read,
// Server.Write) has no address: reply answers it, with tok, the token its
// request carried, raised by what the operation did.
type request struct {
	from  string
	msg   transport.Message // sread or swrite
	tok   Token
	reply func(transport.Env, Answer)
}

type blockedReq struct {
	request
	expiry time.Duration
	min    clock.Vector // the request's guarantee floor
}

// Answer completes an operation served in place: what a read found, and
// the session's token raised by what the operation did (the request's
// token unchanged if the operation timed out).
type Answer struct {
	Value    []byte
	Found    bool
	TimedOut bool
	Token    Token
}

// Server is one Bayou-style replica. It implements transport.Handler.
type Server struct {
	cfg ServerConfig
	id  string

	lamport uint64
	logs    map[string][]write // per-origin, seq order, dense
	// vec[origin] = len(logs[origin]). Answers and anti-entropy requests
	// carry vec itself: each write replaces it with a new vector.
	vec  clock.Vector
	data map[string]write // LWW-resolved current value per key

	blocked []blockedReq

	// cliSeq is the highest client request id seen applied per client
	// actor (locally or via anti-entropy); lastWID is the WriteID that
	// request produced. Together they answer a retried write without
	// re-applying it. Only a requester with an address, the simulator's
	// Client, has entries: a write served in place is never re-sent.
	cliSeq  map[string]uint64
	lastWID map[string]WriteID

	// BlockedServed counts requests that had to wait for anti-entropy.
	BlockedServed uint64
}

type aeTick struct{}
type blockSweep struct{}

// NewServer returns a session server.
func NewServer(id string, cfg ServerConfig) *Server {
	return &Server{
		cfg:     cfg.withDefaults(),
		id:      id,
		logs:    make(map[string][]write),
		vec:     clock.Vector{},
		data:    make(map[string]write),
		cliSeq:  make(map[string]uint64),
		lastWID: make(map[string]WriteID),
	}
}

// OnStart implements transport.Handler.
func (s *Server) OnStart(env transport.Env) {
	env.SetTimer(s.cfg.AntiEntropyInterval, aeTick{})
	env.SetTimer(s.cfg.BlockTimeout/4, blockSweep{})
}

// OnTimer implements transport.Handler.
func (s *Server) OnTimer(env transport.Env, tag any) {
	switch tag.(type) {
	case aeTick:
		if len(s.cfg.Peers) > 0 {
			peer := s.cfg.Peers[env.Rand().Intn(len(s.cfg.Peers))]
			env.Send(peer, aeReq{V: s.vec})
		}
		env.SetTimer(s.cfg.AntiEntropyInterval, aeTick{})
	case blockSweep:
		s.sweepBlocked(env)
		env.SetTimer(s.cfg.BlockTimeout/4, blockSweep{})
	}
}

// OnMessage implements transport.Handler.
func (s *Server) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case aeReq:
		// Walk origins in sorted order so the response payload (and any
		// runs downstream of it) is identical for identical seeds.
		origins := make([]string, 0, len(s.logs))
		for origin := range s.logs {
			origins = append(origins, origin)
		}
		sort.Strings(origins)
		// Each origin's missing suffix ships from its start, as far as
		// maxAEBytes allows (at least one write), so what arrives is a
		// prefix applyRemote accepts; the next round sends the rest.
		var missing []write
		size := 0
		for _, origin := range origins {
			log := s.logs[origin]
			have := int(m.V.Get(origin))
			end := have
			for ; end < len(log); end++ {
				size += log[end].wireSize()
				if size > maxAEBytes && len(missing)+end-have > 0 {
					break
				}
			}
			if have < end {
				missing = append(missing, log[have:end]...)
			}
			if end < len(log) {
				break
			}
		}
		if len(missing) > 0 {
			env.Send(from, aeResp{Writes: missing})
		}
	case aeResp:
		applied := false
		for _, w := range m.Writes {
			if s.applyRemote(w) {
				s.persistWrite(w)
				applied = true
			}
		}
		if applied {
			s.wakeBlocked(env)
		}
	case sread:
		s.serve(env, request{from: from, msg: m}, m.MinVec)
	case swrite:
		s.serve(env, request{from: from, msg: m}, m.MinVec)
	}
}

// Read reads key in place for a client of this process whose session
// token is tok, under all four guarantees: it is served once this server
// dominates the token's floor, and reply answers it on the invocation it
// completes in.
func (s *Server) Read(env transport.Env, key string, tok Token, reply func(transport.Env, Answer)) {
	s.serve(env, request{msg: sread{Key: key}, tok: tok, reply: reply}, tok.floor(All(), true))
}

// Write writes key = value (or deletes key) in place, as Read reads it.
// The write carries no client identity: the client never re-sends it, so
// no at-most-once entry is kept for it.
func (s *Server) Write(env transport.Env, key string, value []byte, deleted bool, tok Token, reply func(transport.Env, Answer)) {
	s.serve(env, request{msg: swrite{Key: key, Val: value, Deleted: deleted}, tok: tok, reply: reply}, tok.floor(All(), false))
}

// serve serves r at once when this server dominates its floor, and
// otherwise blocks it until anti-entropy brings the server there or
// BlockTimeout passes.
func (s *Server) serve(env transport.Env, r request, floor clock.Vector) {
	if !s.vec.Descends(floor) {
		s.blocked = append(s.blocked, blockedReq{
			request: r,
			expiry:  env.Now() + s.cfg.BlockTimeout,
			min:     floor,
		})
		return
	}
	s.run(env, r)
}

// run serves r, whose floor this server dominates.
func (s *Server) run(env transport.Env, r request) {
	switch m := r.msg.(type) {
	case sread:
		s.serveRead(env, r, m)
	case swrite:
		s.serveWrite(env, r, m)
	}
}

func (s *Server) serveRead(env transport.Env, r request, m sread) {
	w, ok := s.data[m.Key]
	resp := sreadResp{ID: m.ID, Key: m.Key, V: s.vec}
	if ok && !w.Deleted {
		resp.Val = w.Val
		resp.OK = true
	}
	s.answer(env, r, resp)
}

func (s *Server) serveWrite(env transport.Env, r request, m swrite) {
	// At-most-once: a request this replica knows to be applied already
	// (here or — learned via anti-entropy — at another server) is
	// acknowledged without re-applying, so a client retrying through a
	// different server cannot double-write. Only a requester with an
	// address retries.
	if r.from != "" && m.ID <= s.cliSeq[r.from] {
		s.answer(env, r, swriteResp{ID: m.ID, WID: s.lastWID[r.from], V: s.vec})
		return
	}
	s.lamport++
	w := write{
		ID:      WriteID{Origin: s.id, Seq: uint64(len(s.logs[s.id])) + 1},
		Key:     m.Key,
		Val:     m.Val,
		Deleted: m.Deleted,
		Client:  r.from,
		CliSeq:  m.ID,
	}
	w.TS.Time = s.lamport
	w.TS.Node = s.id
	s.logs[s.id] = append(s.logs[s.id], w)
	s.vec = s.vec.With(s.id, uint64(len(s.logs[s.id])))
	if r.from != "" {
		s.cliSeq[r.from] = m.ID
		s.lastWID[r.from] = w.ID
	}
	s.resolve(w)
	s.persistWrite(w)
	s.answer(env, r, swriteResp{ID: m.ID, WID: w.ID, V: s.vec})
}

// answer delivers resp, an sreadResp or swriteResp, to r's requester: a
// message to its address, or, served in place, a call of reply with the
// Env of the invocation the operation completed in. A host that holds a
// message back until the invocation's records are durable (the server's
// ack barrier) holds the call the same way through that Env.
func (s *Server) answer(env transport.Env, r request, resp transport.Message) {
	if r.reply == nil {
		env.Send(r.from, resp)
		return
	}
	a := Answer{Token: r.tok}
	a.Token.served(resp)
	switch m := resp.(type) {
	case sreadResp:
		a.Value, a.Found, a.TimedOut = m.Val, m.OK, m.TimedOut
	case swriteResp:
		a.TimedOut = m.TimedOut
	}
	r.reply(env, a)
}

// applyRemote installs a write received by anti-entropy, keeping
// per-origin logs dense. Returns whether it was new.
func (s *Server) applyRemote(w write) bool {
	log := s.logs[w.ID.Origin]
	if w.ID.Seq != uint64(len(log))+1 {
		return false // duplicate or gap (gaps cannot happen with prefix shipping)
	}
	s.logs[w.ID.Origin] = append(log, w)
	s.vec = s.vec.With(w.ID.Origin, w.ID.Seq)
	if w.TS.Time > s.lamport {
		s.lamport = w.TS.Time
	}
	if w.Client != "" && w.CliSeq > s.cliSeq[w.Client] {
		s.cliSeq[w.Client] = w.CliSeq
		s.lastWID[w.Client] = w.ID
	}
	s.resolve(w)
	return true
}

func (s *Server) resolve(w write) {
	cur, ok := s.data[w.Key]
	if !ok || tsLess(cur, w) {
		s.data[w.Key] = w
	}
}

func (s *Server) wakeBlocked(env transport.Env) {
	var still []blockedReq
	for _, b := range s.blocked {
		if s.vec.Descends(b.min) {
			s.BlockedServed++
			s.run(env, b.request)
		} else {
			still = append(still, b)
		}
	}
	s.blocked = still
}

func (s *Server) sweepBlocked(env transport.Env) {
	var still []blockedReq
	for _, b := range s.blocked {
		if env.Now() < b.expiry {
			still = append(still, b)
			continue
		}
		switch m := b.msg.(type) {
		case sread:
			s.answer(env, b.request, sreadResp{ID: m.ID, Key: m.Key, TimedOut: true, V: s.vec})
		case swrite:
			s.answer(env, b.request, swriteResp{ID: m.ID, TimedOut: true, V: s.vec})
		}
	}
	s.blocked = still
}

// Vector exposes the server's version vector, for tests.
func (s *Server) Vector() clock.Vector { return s.vec }

// Value exposes the server's current value for key, for tests.
func (s *Server) Value(key string) ([]byte, bool) {
	w, ok := s.data[key]
	if !ok || w.Deleted {
		return nil, false
	}
	return w.Val, true
}
