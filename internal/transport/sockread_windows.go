package transport

import (
	"syscall"
	"unsafe"
)

var wsSelect = syscall.NewLazyDLL("ws2_32.dll").NewProc("select")

// sockRead is one receive on a connection's socket that never waits. The
// socket is in blocking mode, so sockRead asks select first. A socket
// that is not readable (or that select cannot judge) reports EAGAIN, and
// RawConn.Read waits for readiness, which surfaces a broken socket; a
// readable one has bytes queued or a close to report, so the receive
// returns at once.
func sockRead(fd uintptr, b []byte) (int, error) {
	set, now := [2]uintptr{1, fd}, syscall.Timeval{} // fd_set{fd_count: 1, fd_array: {fd}}
	if r, _, _ := wsSelect.Call(0, uintptr(unsafe.Pointer(&set)), 0, 0, uintptr(unsafe.Pointer(&now))); r != 1 {
		return 0, syscall.EAGAIN
	}
	var n, flags uint32
	buf := syscall.WSABuf{Len: uint32(len(b)), Buf: &b[0]}
	err := syscall.WSARecv(syscall.Handle(fd), &buf, 1, &n, &flags, nil, nil)
	return int(n), err
}
