package embedding

import (
	"fmt"

	"tablehound/internal/snap"
)

// AppendSnapshot encodes the trained model: its config (the OOV
// fallback path re-derives char-gram vectors from Dim/CharGramQ/Seed
// at query time, so the config is part of the model's behavior) and
// the vocabulary in sorted order. The vectors themselves live in the
// snapshot's shared vector block — row i of the model's segment is
// Tokens()[i]'s vector — so decoding the section never copies them.
func (m *Model) AppendSnapshot(e *snap.Encoder) {
	e.U32(uint32(m.cfg.Dim))
	e.U64(m.cfg.Seed)
	e.U32(uint32(m.cfg.MinCount))
	e.U32(uint32(m.cfg.CharGramQ))
	e.Strs(m.Tokens())
}

// DecodeSnapshot rebuilds a model written by AppendSnapshot; at(i)
// must return row i of the model's vector-store segment, which holds
// n rows.
func DecodeSnapshot(d *snap.Decoder, at func(int) []float32, n int) (*Model, error) {
	cfg := Config{
		Dim:       int(d.U32()),
		Seed:      d.U64(),
		MinCount:  int(d.U32()),
		CharGramQ: int(d.U32()),
	}
	toks := d.Strs()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("%w: model dimension %d", snap.ErrCorrupt, cfg.Dim)
	}
	if len(toks) != n {
		return nil, fmt.Errorf("%w: model has %d tokens, vector segment %d rows", snap.ErrCorrupt, len(toks), n)
	}
	m := &Model{cfg: cfg, vecs: make(map[string]Vector, len(toks)), tokens: toks}
	for i, tok := range toks {
		// Row i is the i-th token in sorted order, and the model keeps
		// the list as its sorted vocabulary.
		if i > 0 && toks[i-1] >= tok {
			return nil, fmt.Errorf("%w: model tokens not strictly ascending at %d (%q after %q)", snap.ErrCorrupt, i, tok, toks[i-1])
		}
		vec := Vector(at(i))
		if len(vec) != cfg.Dim {
			return nil, fmt.Errorf("%w: token %q vector has %d dims, want %d", snap.ErrCorrupt, tok, len(vec), cfg.Dim)
		}
		m.vecs[tok] = vec
	}
	return m, nil
}
