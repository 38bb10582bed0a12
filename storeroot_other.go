//go:build !unix

package lfi

import "os"

// checkWritable reports whether the process may create entries in the
// directory dir. Without access(2) it creates and removes a probe file.
func checkWritable(dir string) error {
	probe, err := os.CreateTemp(dir, ".lfi-probe-*")
	if err != nil {
		return err
	}
	probe.Close()
	return os.Remove(probe.Name())
}
