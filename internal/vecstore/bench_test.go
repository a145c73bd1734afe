package vecstore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tablehound/internal/datagen"
	"tablehound/internal/embedding"
	"tablehound/internal/snap"
)

// benchCorpus is the ≥100k-column-vector corpus BenchmarkVecBlobLoad
// reloads: a datagen synthetic lake, an embedding model
// trained on its columns, and 100k column vectors embedded from
// sliding windows over the lake's domain vocabularies (so the corpus
// has the clustered structure real lakes have: columns from the same
// domain are near each other, columns from different domains are far).
// Built once per `go test -bench` process; ~25 MiB of vector data.
var benchCorpus struct {
	once    sync.Once
	raw     []byte // directory section + pad + blob, core's layout
	blobOff int64
}

const (
	benchRows = 100_000
	benchDim  = 64
)

// benchColumn embeds one synthetic column: a wrap-around window of
// domain values, window start and length varied by i so the corpus is
// a smooth manifold per domain rather than 24 point masses.
func benchColumn(m *embedding.Model, dom []string, i, stride int) []float32 {
	wlen := 12 + i%9
	off := (i * stride) % len(dom)
	vals := make([]string, 0, wlen)
	for j := 0; j < wlen; j++ {
		vals = append(vals, dom[(off+j)%len(dom)])
	}
	return m.ColumnVector(vals)
}

func ensureBenchCorpus(tb testing.TB) {
	benchCorpus.once.Do(func() {
		gen := datagen.Generate(datagen.Config{
			Seed:              7,
			NumDomains:        24,
			DomainSize:        200,
			NumTemplates:      10,
			TablesPerTemplate: 8,
		})
		var contexts [][]string
		for _, t := range gen.Tables {
			for _, c := range t.Columns {
				contexts = append(contexts, c.Values)
			}
		}
		model := embedding.Train(contexts, embedding.Config{Dim: benchDim, Seed: 7})

		b := NewBuilder(benchDim)
		for i := 0; i < benchRows; i++ {
			dom := gen.Domains[i%len(gen.Domains)]
			b.Append("cols", benchColumn(model, dom, i, 13))
		}
		store, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}

		// Serialize exactly the way core's snapshot tail does:
		// directory in a CRC-framed section, zero pad to 64-byte
		// alignment, then the raw blob.
		var buf bytes.Buffer
		sw := snap.NewWriter(&buf)
		if err := sw.Section(1, store.AppendDirectory); err != nil {
			tb.Fatal(err)
		}
		pad := PadTo(sw.Written())
		buf.Write(make([]byte, pad))
		benchCorpus.blobOff = int64(buf.Len())
		if err := store.WriteBlob(&buf); err != nil {
			tb.Fatal(err)
		}
		benchCorpus.raw = buf.Bytes()
	})
}

// BenchmarkVecBlobLoad measures materializing the 100k-vector section
// from its on-disk form: the heap path (read + CRC verify, O(bytes))
// vs the mmap path (map the region, O(1) in vector count). The ≥5×
// reload-speedup criterion in EXPERIMENTS.md is the ratio of these.
func BenchmarkVecBlobLoad(b *testing.B) {
	ensureBenchCorpus(b)
	raw, blobOff := benchCorpus.raw, benchCorpus.blobOff

	decodeDir := func(b *testing.B) *Directory {
		sr := snap.NewReader(raw)
		var dir *Directory
		if err := sr.Section(1, func(d *snap.Decoder) error {
			var derr error
			dir, derr = DecodeDirectory(d)
			return derr
		}); err != nil {
			b.Fatal(err)
		}
		return dir
	}

	b.Run("heap", func(b *testing.B) {
		b.SetBytes(int64(len(raw)) - blobOff)
		for i := 0; i < b.N; i++ {
			dir := decodeDir(b)
			s, err := dir.ReadBlob(raw[blobOff:])
			if err != nil {
				b.Fatal(err)
			}
			if s.Count() != benchRows {
				b.Fatal("short load")
			}
		}
	})

	b.Run("mmap", func(b *testing.B) {
		if !MmapSupported() {
			b.Skip("mmap unsupported here")
		}
		path := filepath.Join(b.TempDir(), "vec.bin")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			b.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		b.SetBytes(int64(len(raw)) - blobOff)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := MapFile(f)
			if err != nil {
				b.Fatal(err)
			}
			dir := decodeDir(b)
			s, err := dir.ViewBlob(m[blobOff:], m)
			if err != nil {
				b.Fatal(err)
			}
			if s.Count() != benchRows {
				b.Fatal("short load")
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
