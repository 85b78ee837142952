package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzHello throws arbitrary bytes at the connection preamble, the one
// thing a TCP endpoint reads from a socket before it knows who is on the
// other end. parseHello must accept exactly what putHello writes; and a
// live endpoint handed the bytes as a new connection's first words must
// close it — without adopting it as anyone's link unless they are a
// whole, valid hello from another node of the cluster.
func FuzzHello(f *testing.F) {
	hello := func(id uint32) []byte {
		var b [helloSize]byte
		putHello(&b, int(id))
		return b[:]
	}
	f.Add(hello(1))
	f.Add(hello(0))                                    // the endpoint's own id
	f.Add(hello(3))                                    // one past the cluster
	f.Add(hello(1 << 31))                              // negative as an int32
	f.Add(hello(1)[:5])                                // short
	f.Add([]byte{})                                    // nothing at all
	f.Add(append([]byte("optsync1"), hello(1)[8:]...)) // bad magic
	f.Add(append(hello(1)[:12], 0, 0, 0, 0))           // bad CRC
	f.Add(append(hello(2), "not a frame, whatever follows"...))

	nw := newTCPMesh(f, 3)
	ep := nw.eps[0]

	f.Fuzz(func(t *testing.T, b []byte) {
		valid := false
		id := 0
		if len(b) >= helloSize {
			var ok bool
			id, ok = parseHello((*[helloSize]byte)(b))
			valid = string(b[:helloSize]) == string(hello(binary.BigEndian.Uint32(b[8:])))
			if ok != valid {
				t.Fatalf("parseHello(%x) = %d, %v; putHello writes it: %v", b[:helloSize], id, ok, valid)
			}
		}

		before := nw.stats.linksAdopted.Load()
		conn, err := net.Dial("tcp", ep.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		// Nothing more will come after b: a reader still waiting for the
		// rest of a preamble (or of a frame) sees the stream end. An endpoint
		// that has already hung up on a bad preamble fails these two, or
		// resets the read below; only a connection left open is an error.
		_, _ = conn.Write(b)
		_ = conn.(*net.TCPConn).CloseWrite()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var ne net.Error
		if _, err := io.Copy(io.Discard, conn); errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("endpoint did not close the connection after %x: %v", b, err)
		}
		// The reader adopts before it reads frames and closes after, so
		// the count is final. A peer's link can be adopted once while it is
		// live, so a valid hello is only allowed, not required, to count.
		adopted := nw.stats.linksAdopted.Load() - before
		if peer := valid && id > 0 && id < len(ep.addrs); adopted > 1 || (adopted == 1 && !peer) {
			t.Fatalf("endpoint adopted %d links after preamble %x (valid hello: %v, id %d)", adopted, b, valid, id)
		}
	})
}
