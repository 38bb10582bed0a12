//go:build unix

package lfi

import "syscall"

// checkWritable reports whether the process may create entries in the
// directory dir, asking the kernel rather than creating a probe file:
// a probe would change dir's mtime on every session, even a converged
// resume that writes nothing.
func checkWritable(dir string) error {
	const wOK, xOK = 0x2, 0x1 // access(2) modes: write, search
	return syscall.Access(dir, wOK|xOK)
}
