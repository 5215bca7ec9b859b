package node

import (
	"net"
	"syscall"
	"testing"
	"time"

	"predctl/internal/wire"
)

// blackhole listens on a loopback port with a backlog of 0 and fills
// its queue with one connection it never accepts: the kernel then drops
// every further SYN, so a dial to it hangs until its timeout.
func blackhole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := (&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: sa.(*syscall.SockaddrInet4).Port}).String()
	filler, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })
	return addr
}

// TestTransportCloseCutsDial closes a transport while its link dials a
// peer that never completes the handshake. The dial holds no lock that
// Close needs, and Close cuts it short: Close returns well within the
// dial timeout.
func TestTransportCloseCutsDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opt := testTimeouts()
	opt.DialTimeout = 5 * time.Second
	tr, err := NewTransport(TransportConfig{ID: 0, N: 2, Addrs: []string{ln.Addr().String(), blackhole(t)}, Listener: ln, Timeouts: opt})
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(1, wire.Ctl{From: 0, To: 1})
	time.Sleep(100 * time.Millisecond) // the writer is dialing by now
	start := time.Now()
	tr.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v while a link dialed a peer that never answers", took)
	}
}
