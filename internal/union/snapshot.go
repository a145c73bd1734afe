package union

import (
	"fmt"

	"tablehound/internal/dict"
	"tablehound/internal/embedding"
	"tablehound/internal/hnsw"
	"tablehound/internal/snap"
	"tablehound/internal/table"
)

// Each union engine's snapshot section is its parts in the engine's
// one parts codec, after whether the engine shares the system
// dictionary (the dictionary inline when it does not), and a section
// reader returns what the engine's New*FromParts takes: a load
// assembles the engine from it, and a chain load hands it to the merge
// instead. The indexes an assembly derives (TUS's set-LSH, universe
// and ln n! cache, SANTOS's pair and predicate indexes, D3L's labels
// and value index) are never stored.

// appendValues writes whether values is the system dictionary sysDict,
// and values inline when it is not.
func appendValues(e *snap.Encoder, values, sysDict *dict.Dict) {
	shared := values == sysDict
	e.Bool(shared)
	if !shared {
		values.AppendSnapshot(e)
	}
}

// decodeValues reads what appendValues wrote: lake when the section
// shares the system dictionary, the inline one otherwise.
func decodeValues(d *snap.Decoder, lake *dict.Dict, engine string) (*dict.Dict, error) {
	shared := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !shared {
		return dict.DecodeSnapshot(d)
	}
	if lake == nil {
		return nil, fmt.Errorf("%w: %s shares a dictionary the snapshot does not carry", snap.ErrCorrupt, engine)
	}
	return lake, nil
}

// AppendSnapshot encodes a TUS engine against the system dictionary
// sysDict: whether it is exhaustive, its dictionary (see appendValues),
// its parts (see AppendTUSParts) and its NL graph's topology, whose
// node vectors are the parts' column vectors.
func (t *TUS) AppendSnapshot(e *snap.Encoder, sysDict *dict.Dict) {
	e.Bool(t.cfg.Exhaustive)
	appendValues(e, t.dict, sysDict)
	AppendTUSParts(e, t.Parts())
	t.nlIndex.AppendSnapshotShared(e)
}

// TUSSection is a TUS snapshot section as NewTUSFromParts takes it:
// whether the engine is exhaustive, the dictionary the parts are
// encoded in, the parts, and the stored NL graph.
type TUSSection struct {
	Exhaustive bool
	Dict       *dict.Dict
	Parts      []TUSTableParts
	Graph      *hnsw.Graph
}

// DecodeTUSSection reads a section TUS.AppendSnapshot wrote; lake is
// the loaded system's dictionary. Each graph node takes the vector of
// the column it is keyed by; a node no column backs is corrupt.
func DecodeTUSSection(d *snap.Decoder, lake *dict.Dict) (TUSSection, error) {
	sec := TUSSection{Exhaustive: d.Bool()}
	if d.Err() != nil {
		return sec, d.Err()
	}
	var err error
	if sec.Dict, err = decodeValues(d, lake, "TUS"); err != nil {
		return sec, err
	}
	if sec.Parts, err = DecodeTUSParts(d); err != nil {
		return sec, err
	}
	vecs := make(map[string]embedding.Vector)
	for _, p := range sec.Parts {
		for _, c := range p.Cols {
			vecs[table.ColumnKey(p.ID, c.Name)] = c.Vec
		}
	}
	sec.Graph, err = hnsw.DecodeSnapshotShared(d, func(_ int, key string) embedding.Vector { return vecs[key] })
	return sec, err
}

// AppendSnapshot encodes a SANTOS engine against the system dictionary
// sysDict: its dictionary (see appendValues), then its parts (see
// AppendSantosParts).
func (s *Santos) AppendSnapshot(e *snap.Encoder, sysDict *dict.Dict) {
	appendValues(e, s.values, sysDict)
	AppendSantosParts(e, s.Parts())
}

// DecodeSantosSection reads a section Santos.AppendSnapshot wrote: the
// dictionary its pairs are IDs in (lake when shared) and its parts.
func DecodeSantosSection(d *snap.Decoder, lake *dict.Dict) (*dict.Dict, SantosParts, error) {
	values, err := decodeValues(d, lake, "SANTOS")
	if err != nil {
		return nil, SantosParts{}, err
	}
	parts, err := DecodeSantosParts(d)
	return values, parts, err
}

// AppendSnapshot encodes a D3L engine against the system dictionary
// sysDict: its dictionary (see appendValues), then its parts (see
// AppendD3LParts).
func (d3 *D3L) AppendSnapshot(e *snap.Encoder, sysDict *dict.Dict) {
	appendValues(e, d3.dict, sysDict)
	AppendD3LParts(e, d3.Parts())
}

// DecodeD3LSection reads a section D3L.AppendSnapshot wrote: the
// dictionary its value IDs are in (lake when shared) and its parts.
func DecodeD3LSection(d *snap.Decoder, lake *dict.Dict) (*dict.Dict, D3LParts, error) {
	values, err := decodeValues(d, lake, "D3L")
	if err != nil {
		return nil, D3LParts{}, err
	}
	parts, err := DecodeD3LParts(d)
	return values, parts, err
}
