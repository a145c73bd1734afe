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

// mmapRegion maps length bytes of f starting at byte offset off
// (which need not be page-aligned) read-only and shared, returning
// the requested view and the whole mapping for later munmap.
func mmapRegion(f *os.File, off int64, length int) (view, mapping []byte, err error) {
	page := int64(os.Getpagesize())
	pageOff := off &^ (page - 1)
	lead := int(off - pageOff)
	mapping, err = syscall.Mmap(int(f.Fd()), pageOff, lead+length, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("vecstore: mmap: %w", err)
	}
	return mapping[lead : lead+length : lead+length], mapping, nil
}

func munmapRegion(mapping []byte) error {
	return syscall.Munmap(mapping)
}
