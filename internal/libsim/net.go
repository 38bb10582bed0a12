package libsim

import (
	"lfi/internal/errno"
)

// Socket models socket(2) for datagram sockets, returning a file
// descriptor bound to the process's network backend.
func (t *Thread) Socket() int64 {
	c := t.C
	return t.call(fnSocket, []int64{2 /* AF_INET */, 2 /* SOCK_DGRAM */, 0}, func() (int64, errno.Errno) {
		if c.net == nil {
			return -1, errno.ENOSYS
		}
		ep := c.net.NewEndpoint()
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.newFD(&fdesc{ep: ep})), errno.OK
	})
}

// Bind models bind(2), attaching the socket to a string address.
func (t *Thread) Bind(fd int64, addr string) int64 {
	c := t.C
	return t.call(fnBind, []int64{fd, int64(len(addr))}, func() (int64, errno.Errno) {
		c.mu.Lock()
		d, ok := c.fds[int(fd)]
		c.mu.Unlock()
		if !ok || d.ep == nil {
			return -1, errno.EBADF
		}
		if e := d.ep.Bind(addr); e != errno.OK {
			return -1, e
		}
		return 0, errno.OK
	})
}

// Sendto models sendto(2): returns the payload length or -1.
func (t *Thread) Sendto(fd int64, payload []byte, dst string) int64 {
	c := t.C
	return t.call(fnSendto, []int64{fd, 0, int64(len(payload)), 0, int64(len(dst))}, func() (int64, errno.Errno) {
		c.mu.Lock()
		d, ok := c.fds[int(fd)]
		c.mu.Unlock()
		if !ok || d.ep == nil {
			return -1, errno.EBADF
		}
		if e := d.ep.SendTo(dst, payload); e != errno.OK {
			return -1, e
		}
		return int64(len(payload)), errno.OK
	})
}

// Recvfrom models recvfrom(2) on a non-blocking socket: it copies the
// oldest queued datagram into buf, stores the sender address in from,
// and returns the byte count, or -1 with EAGAIN when nothing is queued.
func (t *Thread) Recvfrom(fd int64, buf []byte, from *string) int64 {
	c := t.C
	return t.call(fnRecvfrom, []int64{fd, 0, int64(len(buf)), 0}, func() (int64, errno.Errno) {
		c.mu.Lock()
		d, ok := c.fds[int(fd)]
		c.mu.Unlock()
		if !ok || d.ep == nil {
			return -1, errno.EBADF
		}
		payload, src, e := d.ep.RecvFrom()
		if e != errno.OK {
			return -1, e
		}
		n := copy(buf, payload)
		if from != nil {
			*from = src
		}
		return int64(n), errno.OK
	})
}
