//go:build !(linux || darwin)

package vecstore

import (
	"fmt"
	"os"
)

// MmapSupported reports that this platform has no mmap path; loads
// use the portable heap reader.
func MmapSupported() bool { return false }

func mmapRegion(f *os.File, off int64, length int) (view, mapping []byte, err error) {
	return nil, nil, fmt.Errorf("vecstore: mmap unsupported on this platform")
}

func munmapRegion(mapping []byte) error { return nil }
