//go:build !(linux || darwin)

package vecstore

import (
	"fmt"
	"os"
)

// MmapSupported reports that this platform has no mmap path; loads
// use the portable heap reader.
func MmapSupported() bool { return false }

func mmapFile(f *os.File, size int) ([]byte, error) {
	return nil, fmt.Errorf("vecstore: mmap unsupported on this platform")
}

func munmap(mapping []byte) error { return nil }
