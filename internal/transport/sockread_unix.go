//go:build !windows

package transport

import "syscall"

// sockRead is one read syscall on a connection's descriptor. The
// descriptor is non-blocking, so the read never waits and no signal
// interrupts it: EAGAIN says the socket is drained.
func sockRead(fd uintptr, b []byte) (int, error) { return syscall.Read(int(fd), b) }
