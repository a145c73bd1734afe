// Shard manifests: when a lake is built as N partitioned snapshots
// (`lakectl build -shards N`), a small manifest file written next to
// the shard snapshots records how the partitioning was done — the
// shard count, the table→shard assignment function, and a per-shard
// content generation — so the serving tier can verify that a set of
// shard servers was built from the same partitioning before fanning
// queries across them.
//
// The manifest reuses the snapshot substrate (header + one CRC-framed
// section), so the corruption contract is identical: any structural
// defect satisfies errors.Is(err, ErrCorrupt).
package snap

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Manifest framing.
const (
	manifestMagic   uint32 = 0x54484d46 // "THMF": tablehound manifest
	manifestVersion uint16 = 1
	secManifest     uint16 = 1
)

// AssignFNV1a names the (only) table→shard assignment function:
// FNV-1a 64 over the table ID, modulo the shard count. Recorded in the
// manifest so a future format can introduce alternatives without
// ambiguity.
const AssignFNV1a = "fnv1a64"

// ShardEntry describes one shard of a partitioned lake.
type ShardEntry struct {
	// Snapshot is the shard's snapshot file name, relative to the
	// manifest's directory.
	Snapshot string
	// Generation is a content hash over the shard's table IDs in
	// catalog order — two builds over the same partition get the same
	// generation, any membership change gets a different one.
	Generation uint64
	// Tables is the shard's table count.
	Tables int
}

// Manifest records how a lake was partitioned into shard snapshots.
type Manifest struct {
	// Assign names the table→shard assignment function (AssignFNV1a).
	Assign string
	// Shards has one entry per shard, indexed by shard number.
	Shards []ShardEntry
}

// ShardOf assigns a table ID to a shard in [0, n): FNV-1a 64 over the
// ID, modulo n. The assignment is a pure function of the ID and the
// shard count, so the builder and the router always agree. n <= 1
// always yields shard 0.
func ShardOf(tableID string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv1a64(tableID) % uint64(n))
}

// HashIDs computes a shard generation: FNV-1a 64 chained over a
// sequence of table IDs (each ID hashed with its length prefix so
// concatenation ambiguities cannot collide).
func HashIDs(ids []string) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h = fnv1a64Step(h, fmt.Sprintf("%d:", len(id)))
		h = fnv1a64Step(h, id)
	}
	return h
}

// HashTables computes a content generation: FNV-1a 64 chained over
// (table ID, content hash) pairs — IDs length-prefixed as in HashIDs,
// each followed by its table's content hash. Unlike HashIDs (pure
// membership, which shard manifests use to verify partitioning), this
// generation changes whenever any table's contents change, not just
// when the ID set does — replacing a table (remove + add under the
// same ID) yields a new generation, which is what lets the serving
// tier key query caches on it. ids and hashes must be aligned.
func HashTables(ids []string, hashes []uint64) uint64 {
	h := uint64(fnvOffset64)
	for i, id := range ids {
		h = fnv1a64Step(h, fmt.Sprintf("%d:", len(id)))
		h = fnv1a64Step(h, id)
		h = fnv1a64Step(h, fmt.Sprintf("=%016x;", hashes[i]))
	}
	return h
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnv1a64(s string) uint64 { return fnv1a64Step(fnvOffset64, s) }

func fnv1a64Step(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Hash returns a single fingerprint of the whole manifest — shard
// count, assignment function, and every shard's generation — used by
// the router to refuse mixing shard servers built from different
// partitionings.
func (m *Manifest) Hash() uint64 {
	h := fnv1a64Step(fnvOffset64, fmt.Sprintf("%s|%d|", m.Assign, len(m.Shards)))
	for _, s := range m.Shards {
		h = fnv1a64Step(h, fmt.Sprintf("%d:%d|", s.Generation, s.Tables))
	}
	return h
}

// WriteManifest writes the manifest as a framed snapshot stream.
func WriteManifest(w io.Writer, m *Manifest) error {
	if err := WriteHeader(w, manifestMagic, manifestVersion, 0); err != nil {
		return err
	}
	sw := NewWriter(w)
	return sw.Section(secManifest, func(e *Encoder) {
		e.Str(m.Assign)
		e.U32(uint32(len(m.Shards)))
		for _, s := range m.Shards {
			e.Str(s.Snapshot)
			e.U64(s.Generation)
			e.U32(uint32(s.Tables))
		}
	})
}

// ReadManifest reads a manifest written by WriteManifest. Corruption
// in any form satisfies errors.Is(err, ErrCorrupt); an error reading r
// is returned as is.
func ReadManifest(r io.Reader) (*Manifest, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeManifest(buf)
}

// decodeManifest decodes a whole manifest file's bytes.
func decodeManifest(buf []byte) (*Manifest, error) {
	version, _, err := ReadHeader(buf, manifestMagic)
	if err != nil {
		return nil, err
	}
	if version != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported manifest version %d (want %d)", ErrCorrupt, version, manifestVersion)
	}
	sr := NewReader(buf[HeaderLen:])
	m := &Manifest{}
	if err := sr.Section(secManifest, func(d *Decoder) error {
		m.Assign = d.Str()
		n := int(d.U32())
		if n < 0 || n*16 > d.Remaining() { // each entry is ≥ 4 (str len) + 8 + 4 bytes
			d.fail("implausible shard count %d", n)
			return d.Err()
		}
		m.Shards = make([]ShardEntry, n)
		for i := range m.Shards {
			m.Shards[i] = ShardEntry{
				Snapshot:   d.Str(),
				Generation: d.U64(),
				Tables:     int(d.U32()),
			}
		}
		return d.Err()
	}); err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	if m.Assign != AssignFNV1a {
		return nil, fmt.Errorf("%w: unknown assignment function %q", ErrCorrupt, m.Assign)
	}
	return m, nil
}

// WriteManifestFile writes the manifest to a file.
func WriteManifestFile(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteManifest(bw, m); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifestFile reads a manifest from a file.
func ReadManifestFile(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(buf)
}
