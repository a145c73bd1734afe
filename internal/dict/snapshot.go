package dict

import (
	"fmt"

	"tablehound/internal/snap"
)

// AppendSnapshot encodes the dictionary. Only the sorted value table
// is written: the ID map is fully determined by it and is rebuilt on
// decode.
func (d *Dict) AppendSnapshot(e *snap.Encoder) {
	e.Strs(d.values)
}

// DecodeSnapshot rebuilds a dictionary written by AppendSnapshot,
// recomputing the value→ID map exactly as Builder.Build does, so the result is bit-identical to the original.
func DecodeSnapshot(sd *snap.Decoder) (*Dict, error) {
	values := sd.Strs()
	if sd.Err() != nil {
		return nil, sd.Err()
	}
	d := &Dict{
		values: values,
		ids:    make(map[string]uint32, len(values)),
	}
	for i, v := range values {
		if i > 0 && values[i-1] >= v {
			return nil, fmt.Errorf("%w: dictionary values not strictly sorted at index %d", snap.ErrCorrupt, i)
		}
		d.ids[v] = uint32(i)
	}
	return d, nil
}
