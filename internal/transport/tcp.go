package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// TCPNet is a full mesh of TCP connections between the cluster's nodes,
// created within one process (use Join to attach a node from its own
// process). Listener addresses may use port 0; the actual ports are
// resolved before any endpoint is returned.
//
// Links are multiplexed per node pair, not per group: one writer
// goroutine and (at most) one connection carry every group's traffic
// between two nodes, and a dialed connection identifies itself with a
// hello preamble so the acceptor can adopt it as the shared duplex link
// instead of dialing a second socket back.
type TCPNet struct {
	addrs []string
	eps   []*tcpEndpoint
	stats *tcpStats
}

var _ Network = (*TCPNet)(nil)

// NewTCP listens on every address and wires up an n-node TCP mesh.
func NewTCP(addrs []string) (*TCPNet, error) {
	if len(addrs) < 1 {
		return nil, fmt.Errorf("transport: tcp network needs >= 1 address")
	}
	listeners := make([]net.Listener, len(addrs))
	actual := make([]string, len(addrs))
	for i, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("transport: listen %s: %w", a, err)
		}
		listeners[i] = ln
		actual[i] = ln.Addr().String()
	}
	stats := &tcpStats{}
	n := &TCPNet{addrs: actual, eps: make([]*tcpEndpoint, len(addrs)), stats: stats}
	for i, ln := range listeners {
		n.eps[i] = newTCPEndpoint(i, ln, actual, stats)
	}
	return n, nil
}

// Join attaches node id to a multi-process cluster whose node addresses
// are fixed in advance (no port 0). The caller owns the returned endpoint.
func Join(id int, addrs []string) (Endpoint, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("transport: join id %d out of range [0,%d)", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	return newTCPEndpoint(id, ln, addrs, &tcpStats{}), nil
}

// Size implements Network.
func (t *TCPNet) Size() int { return len(t.eps) }

// Endpoint implements Network.
func (t *TCPNet) Endpoint(id int) (Endpoint, error) {
	if id < 0 || id >= len(t.eps) {
		return nil, fmt.Errorf("transport: endpoint %d out of range [0,%d)", id, len(t.eps))
	}
	return t.eps[id], nil
}

// Close implements Network.
func (t *TCPNet) Close() error {
	var first error
	for _, ep := range t.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TransportStats snapshots the mesh-wide transport counters.
func (t *TCPNet) TransportStats() obs.TransportStats { return t.stats.snapshot() }

// tcpStats are the transport's live counters, shared by every endpoint
// of one Network (a Join endpoint carries its own).
type tcpStats struct {
	framesSent   atomic.Uint64
	bytesSent    atomic.Uint64
	writevs      atomic.Uint64
	framesRecv   atomic.Uint64
	decodeErrors atomic.Uint64
	connResets   atomic.Uint64
	sendDrops    atomic.Uint64
	dials        atomic.Uint64
	linksAdopted atomic.Uint64
}

func (s *tcpStats) snapshot() obs.TransportStats {
	return obs.TransportStats{
		FramesSent:   s.framesSent.Load(),
		BytesSent:    s.bytesSent.Load(),
		Writevs:      s.writevs.Load(),
		FramesRecv:   s.framesRecv.Load(),
		DecodeErrors: s.decodeErrors.Load(),
		ConnResets:   s.connResets.Load(),
		SendDrops:    s.sendDrops.Load(),
		Dials:        s.dials.Load(),
		LinksAdopted: s.linksAdopted.Load(),
	}
}

// The hello preamble a dialer writes before its first frame: magic,
// version, the dialer's node id, and a CRC32C over the rest. It lets the
// acceptor attribute the connection to a peer and adopt it as the
// shared duplex link (multiplexing), and rejects strangers that happen
// to connect to the port.
const helloSize = 8 + 4 + 4

var (
	helloMagic = [8]byte{'o', 'p', 't', 's', 'y', 'n', 'c', '2'}
	helloTable = crc32.MakeTable(crc32.Castagnoli)
)

func putHello(b *[helloSize]byte, id int) {
	copy(b[:8], helloMagic[:])
	binary.BigEndian.PutUint32(b[8:], uint32(id))
	binary.BigEndian.PutUint32(b[12:], crc32.Checksum(b[:12], helloTable))
}

func parseHello(b *[helloSize]byte) (id int, ok bool) {
	if [8]byte(b[:8]) != helloMagic {
		return 0, false
	}
	if binary.BigEndian.Uint32(b[12:]) != crc32.Checksum(b[:12], helloTable) {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(b[8:])), true
}

// defaultOutboxBound caps a peer's outbox. A slow-but-alive peer sheds
// the oldest frames (counted as SendDrops) instead of growing resident
// memory without limit; the GWC layer's sequence numbers and NACK/retry
// recovery repair the shed frames exactly like network loss. The bound
// comfortably covers the root's retransmit window (wire.MaxBatch).
const defaultOutboxBound = 2 * wire.MaxBatch

// outMsg is one outbox entry: a message for the writer to encode, or —
// on the raw path fault injectors use — a pre-encoded frame shipped
// verbatim.
type outMsg struct {
	m   wire.Message
	raw []byte
}

// tcpEndpoint is one node's listener, inbox, and outgoing peer links.
type tcpEndpoint struct {
	id       int
	addrs    []string
	ln       net.Listener
	inbox    *mailbox[wire.Message]
	stats    *tcpStats
	outBound int // outbox cap for newly created peers (tests shrink it)

	// handler, once DeliverTo has set it, takes every run the frame
	// readers decode; until then (and for self-sends always) frames go to
	// the inbox.
	handler atomic.Pointer[func([]wire.Message)]

	// peers is indexed by node id. A slot is filled once, under mu, and
	// never cleared, so Send finds its peer with one atomic load.
	peers []atomic.Pointer[tcpPeer]

	mu      sync.Mutex
	inbound []net.Conn
	closed  bool
	wg      sync.WaitGroup
}

func newTCPEndpoint(id int, ln net.Listener, addrs []string, stats *tcpStats) *tcpEndpoint {
	ep := &tcpEndpoint{
		id:       id,
		addrs:    append([]string(nil), addrs...),
		ln:       ln,
		inbox:    newMailbox[wire.Message](),
		stats:    stats,
		outBound: defaultOutboxBound,
		peers:    make([]atomic.Pointer[tcpPeer], len(addrs)),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep
}

// acceptLoop turns every inbound connection into a frame reader. The
// dialer's hello preamble names the remote node, so the
// connection can double as the outgoing link to that peer (adoption).
func (ep *tcpEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			_ = conn.Close()
			return
		}
		ep.inbound = append(ep.inbound, conn)
		ep.mu.Unlock()
		ep.wg.Add(1)
		go ep.readLoop(conn)
	}
}

// readLoop drives one inbound connection: validate the hello, offer the
// connection to the peer's writer as the shared duplex link, then decode
// frames until the connection dies — or until a decode error proves the
// stream framing can no longer be trusted, in which case the reader
// resets the link proactively (ConnResets) so the remote redials at
// once instead of black-holing frames into a dead socket. Frame-local
// corruption (wire.ErrCorruptFrame) only skips the one frame: the
// framing is still synchronized, later frames on the connection are
// fine, and the GWC layer recovers the skipped frame via NACK/retry.
func (ep *tcpEndpoint) readLoop(conn net.Conn) {
	defer ep.wg.Done()
	defer func() { _ = conn.Close() }()
	r := bufio.NewReader(conn)
	var hello [helloSize]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return
	}
	from, ok := parseHello(&hello)
	if !ok {
		return // a stranger, not a cluster peer
	}
	if from >= 0 && from < len(ep.addrs) && from != ep.id {
		ep.adopt(from, conn)
	}
	ep.frameLoop(r, conn)
}

// frameLoop decodes frames off a connection — inbound or dialed (a
// dialed connection carries the peer's traffic back once the remote
// adopts it) — until it dies or the framing desynchronizes. It decodes
// every whole frame the last socket read left in r, straight out of r's
// buffer, and delivers the run in one call (frameReader.deliver); a run
// is always delivered before a read that could block, so no frame waits
// for bytes that have not arrived and a lone frame is delivered as
// promptly as it ever was.
func (ep *tcpEndpoint) frameLoop(r *bufio.Reader, conn net.Conn) {
	fr := frameReader{ep: ep, r: r}
	for {
		m, err := fr.next()
		switch {
		case err == nil:
			fr.run = append(fr.run, m)
		case errors.Is(err, wire.ErrCorruptFrame):
			// Frame-local: exactly the damaged frame was consumed.
			ep.stats.decodeErrors.Add(1)
		default:
			if !isConnError(err) {
				// Desync-class decode failure on a live connection:
				// count it and reset the link (the deferred close in our
				// caller); the remote's next write fails immediately and
				// it redials.
				ep.stats.decodeErrors.Add(1)
				ep.stats.connResets.Add(1)
			}
			// What decoded cleanly ahead of the failure still counts.
			_ = fr.deliver()
			return
		}
	}
}

// frameReader is frameLoop's state: the stream, and the frames decoded
// from it that have not been delivered yet.
type frameReader struct {
	ep  *tcpEndpoint
	r   *bufio.Reader
	run []wire.Message
}

// next decodes the next frame of the stream. Whenever the bytes it needs
// are not all buffered — the one case in which it can block — it first
// delivers the run. An error wrapping wire.ErrCorruptFrame has consumed
// exactly the damaged frame; any other ends the connection.
func (fr *frameReader) next() (wire.Message, error) {
	hdr, err := fr.peek(wire.EncodedSize)
	if err != nil {
		return wire.Message{}, err
	}
	need, err := wire.FrameLen(hdr)
	if err != nil {
		return wire.Message{}, err
	}
	if need <= fr.r.Size() {
		frame, err := fr.peek(need)
		if err != nil {
			return wire.Message{}, err
		}
		// Decode aliases nothing in frame, so its bytes can go at once.
		m, err := wire.Decode(frame)
		_, _ = fr.r.Discard(need) // cannot fail: need bytes are buffered
		return m, err
	}
	// A batch frame longer than r's buffer cannot be peeked whole; nothing
	// of it has been consumed yet, so wire.ReadFrom takes it from the top.
	if err := fr.deliver(); err != nil {
		return wire.Message{}, err
	}
	return wire.ReadFrom(fr.r)
}

// peek returns the stream's next n bytes (n <= r.Size()) without
// consuming them, delivering the run first if they are not all buffered.
func (fr *frameReader) peek(n int) ([]byte, error) {
	if fr.r.Buffered() < n {
		if err := fr.deliver(); err != nil {
			return nil, err
		}
	}
	return fr.r.Peek(n)
}

// deliver hands the run over in one operation — to the registered
// handler on this goroutine, else to the inbox — and empties it (zeroed,
// so the scratch pins no batch payload). While the handler runs nothing
// is read from the socket: a consumer that cannot keep up fills the
// kernel's buffers and stalls the remote writer, whose bounded outbox
// sheds, instead of growing a queue here.
func (fr *frameReader) deliver() error {
	if len(fr.run) == 0 {
		return nil
	}
	fr.ep.stats.framesRecv.Add(uint64(len(fr.run)))
	var err error
	if h := fr.ep.handler.Load(); h != nil {
		(*h)(fr.run)
	} else {
		err = fr.ep.inbox.putAll(fr.run)
	}
	clear(fr.run)
	fr.run = fr.run[:0]
	return err
}

// isConnError reports whether err is connection death (remote close,
// torn frame on a dying socket, local shutdown — of the socket or of the
// inbox the frames go to) rather than a decode failure on a live stream.
func isConnError(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, ErrClosed) || errors.As(err, &ne)
}

// adopt offers an identified inbound connection to the peer's writer as
// the outgoing link, creating the peer if the first contact was inbound.
func (ep *tcpEndpoint) adopt(from int, conn net.Conn) {
	p, err := ep.peer(from)
	if err != nil {
		return
	}
	if p.offer(conn) {
		ep.stats.linksAdopted.Add(1)
	}
}

// peer returns the writer for node `to` (in range), creating it on first
// use. A peer outlives Close — its closed outbox is what tells a late
// Send ErrClosed — so the fast path needs no closed check.
func (ep *tcpEndpoint) peer(to int) (*tcpPeer, error) {
	if p := ep.peers[to].Load(); p != nil {
		return p, nil
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil, ErrClosed
	}
	p := ep.peers[to].Load()
	if p == nil {
		p = newTCPPeer(ep, to)
		ep.peers[to].Store(p)
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			p.writeLoop()
		}()
	}
	return p, nil
}

// Send implements Endpoint, dialing peers lazily and writing through a
// per-peer goroutine so a slow peer never blocks the caller.
func (ep *tcpEndpoint) Send(to int, m wire.Message) error {
	if to == ep.id {
		return ep.inbox.put(m)
	}
	if to < 0 || to >= len(ep.addrs) {
		return fmt.Errorf("transport: send to %d out of range [0,%d)", to, len(ep.addrs))
	}
	p, err := ep.peer(to)
	if err != nil {
		return err
	}
	return p.out.put(outMsg{m: m})
}

// SendEncoded ships a pre-encoded frame verbatim — fault injectors use
// it to put genuinely corrupt bytes on the real wire, something Send
// cannot do because it re-encodes. The frame is copied (the caller may
// reuse its buffer). A self-send runs through the decoder like a remote
// reader would, dropping (and counting) undecodable frames.
func (ep *tcpEndpoint) SendEncoded(to int, frame []byte) error {
	if to == ep.id {
		m, err := wire.Decode(frame)
		if err != nil {
			ep.stats.decodeErrors.Add(1)
			return nil
		}
		ep.stats.framesRecv.Add(1)
		return ep.inbox.put(m)
	}
	if to < 0 || to >= len(ep.addrs) {
		return fmt.Errorf("transport: send to %d out of range [0,%d)", to, len(ep.addrs))
	}
	p, err := ep.peer(to)
	if err != nil {
		return err
	}
	return p.out.put(outMsg{raw: append([]byte(nil), frame...)})
}

// TransportStats snapshots the endpoint's transport counters (shared
// with the whole mesh when the endpoint came from NewTCP).
func (ep *tcpEndpoint) TransportStats() obs.TransportStats { return ep.stats.snapshot() }

// Recv implements Endpoint.
func (ep *tcpEndpoint) Recv() (wire.Message, bool) { return ep.inbox.get() }

func (ep *tcpEndpoint) recvBatch(spare []wire.Message) ([]wire.Message, bool) {
	return ep.inbox.drain(spare)
}

func (ep *tcpEndpoint) deliverTo(h func([]wire.Message)) bool {
	ep.handler.Store(&h)
	return true
}

// Close implements Endpoint: stops the listener, peer writers, and inbox,
// then waits for all endpoint goroutines to exit — a frame reader that
// is inside the DeliverTo handler included, so the caller must not hold
// anything the handler takes.
func (ep *tcpEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	var peers []*tcpPeer
	for i := range ep.peers {
		if p := ep.peers[i].Load(); p != nil {
			peers = append(peers, p)
		}
	}
	inbound := ep.inbound
	ep.inbound = nil
	ep.mu.Unlock()

	err := ep.ln.Close()
	for _, c := range inbound {
		_ = c.Close() // unblock the frame readers
	}
	for _, p := range peers {
		p.close()
	}
	ep.inbox.close()
	ep.wg.Wait()
	return err
}

// Reconnect backoff bounds: after a failed dial the peer waits
// base<<fails (capped at dialBackoffMax) plus up to 25% jitter before
// trying again; a successful dial resets the backoff. The peer is never
// marked dead — a crashed-and-restarted node becomes reachable again as
// soon as its listener returns.
const (
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
)

// chunkSize bounds one pooled write chunk. A drained outbox encodes flat
// into one chunk — frames contiguous end-to-end — and ships with one
// conn.Write; a drain that outgrows the chunk ships it and refills it.
const chunkSize = 64 << 10

// chunkPool recycles write chunk buffers across peers: a link holds one
// only while it has a drained batch in hand, so an idle mesh pins none
// and creating a link allocates none.
var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, 0, chunkSize)
	return &b
}}

// tcpPeer is one outgoing link: a bounded outbox drained whole by a
// writer goroutine, one write per drain.
type tcpPeer struct {
	ep   *tcpEndpoint
	to   int
	addr string
	out  *mailbox[outMsg]

	// conn is shared between the writer goroutine, link adoption (the
	// acceptor installing an inbound connection), and close; it lives
	// under mu. Everything below the RNG line is reconnect state owned
	// exclusively by the writer goroutine — dial and its backoff
	// bookkeeping only ever run on writeLoop's stack, so they need no
	// lock, but they must never migrate under mu-free access from
	// another goroutine.
	mu     sync.Mutex
	conn   net.Conn
	closed bool

	// rng drives the dial jitter: per-peer and deterministically seeded
	// (like the gwc retry backoff's per-node rng), so reconnect storms
	// decorrelate without contending on the global math/rand lock.
	rng      *rand.Rand
	fails    int
	nextDial time.Time
}

func newTCPPeer(ep *tcpEndpoint, to int) *tcpPeer {
	// Seeded like the gwc retry backoff's per-node rng (Knuth
	// multiplicative hash of the identity), folded over both ends of the
	// link so every peer pair jitters differently but reproducibly.
	seed := (int64(ep.id)*2654435761+int64(to))*2654435761 + 1
	return &tcpPeer{
		ep:   ep,
		to:   to,
		addr: ep.addrs[to],
		out:  newBoundedMailbox[outMsg](ep.outBound, &ep.stats.sendDrops),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// writeLoop drains the whole outbox per wakeup and ships it (ship) — no
// per-message syscalls, no lingering userspace buffer to hide a dead
// connection behind: a write error surfaces on the very batch that hit it
// and resets the link. Messages drained while the link is down and still
// backing off are dropped; the GWC layer's retry timers and sequence
// numbers detect and repair the loss.
func (p *tcpPeer) writeLoop() {
	var spare []outMsg
	for {
		batch, ok := p.out.drain(spare)
		if !ok {
			p.mu.Lock()
			if p.conn != nil {
				_ = p.conn.Close()
			}
			p.mu.Unlock()
			return
		}
		spare = batch
		conn := p.connLocked()
		if conn == nil {
			var err error
			if conn, err = p.dial(); err != nil {
				continue // drop the batch; retry/NACK recovery handles it
			}
		}
		if err := p.ship(conn, batch); err != nil {
			p.resetConn()
		}
	}
}

// ship lays batch out flat in a pooled chunk and writes it to conn: one
// write syscall for the whole drain unless it outgrows the chunk (a
// plain conn.Write of the chunk — building a net.Buffers for writev cost
// a heap object per call and the list was one chunk long anyway). A
// frame larger than a chunk grows the chunk it starts. On error the rest
// of the batch is dropped with it.
func (p *tcpPeer) ship(conn net.Conn, batch []outMsg) error {
	chunk := chunkPool.Get().(*[]byte)
	buf := (*chunk)[:0]
	var frames uint64
	var err error
	for i := range batch {
		om := &batch[i]
		need := len(om.raw)
		if om.raw == nil {
			need = wire.EncodedLen(om.m)
		}
		if len(buf)+need > cap(buf) && len(buf) > 0 {
			if err = p.write(conn, buf, frames); err != nil {
				clear(batch[i:]) // recycled via spare; release the raw bytes
				break
			}
			buf, frames = buf[:0], 0
		}
		if om.raw != nil {
			buf = append(buf, om.raw...)
			om.raw = nil // recycled via spare; release the bytes
		} else {
			buf = wire.Encode(buf, om.m)
		}
		frames++
	}
	if err == nil && len(buf) > 0 {
		err = p.write(conn, buf, frames)
	}
	*chunk = buf[:0]
	chunkPool.Put(chunk)
	return err
}

// write issues one write syscall for buf, which holds `frames` whole
// frames, and counts it if it went through.
func (p *tcpPeer) write(conn net.Conn, buf []byte, frames uint64) error {
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	p.ep.stats.writevs.Add(1)
	p.ep.stats.framesSent.Add(frames)
	p.ep.stats.bytesSent.Add(uint64(len(buf)))
	return nil
}

func (p *tcpPeer) connLocked() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// offer installs an adopted inbound connection as the outgoing link if
// the peer has none, multiplexing both directions over one socket.
func (p *tcpPeer) offer(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.conn != nil {
		return false
	}
	p.conn = conn
	return true
}

func (p *tcpPeer) resetConn() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
}

// dial attempts one connection, honouring the exponential backoff from
// previous failures. While the backoff window is open it fails fast so a
// down peer cannot stall the writer behind one-second dial timeouts. A
// successful dial writes the hello preamble so the acceptor can adopt
// the connection for its own traffic back to us.
func (p *tcpPeer) dial() (net.Conn, error) {
	if !p.nextDial.IsZero() && time.Now().Before(p.nextDial) {
		return nil, fmt.Errorf("transport: dial %s: backing off", p.addr)
	}
	conn, err := net.DialTimeout("tcp", p.addr, time.Second)
	if err == nil {
		var hello [helloSize]byte
		putHello(&hello, p.ep.id)
		if _, werr := conn.Write(hello[:]); werr != nil {
			_ = conn.Close()
			err = werr
		}
	}
	if err == nil {
		p.fails = 0
		p.nextDial = time.Time{}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return nil, ErrClosed
		}
		if p.conn != nil {
			// Link adoption raced the dial and won; keep the adopted
			// duplex link and discard the fresh socket.
			adopted := p.conn
			p.mu.Unlock()
			_ = conn.Close()
			return adopted, nil
		}
		p.conn = conn
		p.mu.Unlock()
		p.ep.stats.dials.Add(1)
		// The link is duplex: the remote adopts it for its traffic back
		// to us, so the dialer reads frames off it too. (The wg.Add is
		// safe against Close's Wait because the writer goroutine calling
		// dial is itself wg-tracked, holding the counter above zero.)
		p.ep.wg.Add(1)
		go func() {
			defer p.ep.wg.Done()
			defer func() { _ = conn.Close() }()
			p.ep.frameLoop(bufio.NewReader(conn), conn)
		}()
		return conn, nil
	}
	backoff := dialBackoffBase << p.fails
	if backoff > dialBackoffMax {
		backoff = dialBackoffMax
	} else if p.fails < 20 {
		p.fails++
	}
	// Jitter up to 25% so a mesh of reconnecting peers does not dial a
	// recovering node in lockstep.
	backoff += time.Duration(p.rng.Int63n(int64(backoff)/4 + 1))
	p.nextDial = time.Now().Add(backoff)
	return nil, fmt.Errorf("transport: dial %s: %w", p.addr, err)
}

func (p *tcpPeer) close() {
	p.mu.Lock()
	p.closed = true
	if p.conn != nil {
		// Unblock a writer stalled mid-write against a wedged peer; its
		// Write fails immediately and writeLoop exits via the closed
		// outbox. (writeLoop's own exit path tolerates the double close.)
		_ = p.conn.Close()
	}
	p.mu.Unlock()
	p.out.close()
}
