//go:build linux || darwin

package vecstore

import (
	"fmt"
	"os"
	"syscall"
)

// MmapSupported reports whether this build can serve the vector blob
// zero-copy: a unix mmap plus a little-endian host (the on-disk
// float layout). Big-endian hosts fall back to the heap reader.
func MmapSupported() bool { return hostLittleEndian }

// mmapFile maps the whole of f, size bytes long, read-only and shared.
func mmapFile(f *os.File, size int) ([]byte, error) {
	m, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("vecstore: mmap: %w", err)
	}
	return m, nil
}

func munmap(mapping []byte) error {
	return syscall.Munmap(mapping)
}
