package mem

// PageDir mirrors the generic page directory: Lookup and Peek are hot
// under their type-parameterized receiver, materialize is the cold
// allocation path.
type PageDir[P any] struct {
	spans [][]*P
	last  *P
}

func (d *PageDir[P]) Lookup(idx uint64) *P {
	if p := d.Peek(idx); p != nil {
		return p
	}
	d.last = new(P) // want `new in hot function PageDir.Lookup`
	return d.materialize(idx)
}

// Peek is hot and clean: it only indexes the tables.
func (d *PageDir[P]) Peek(idx uint64) *P {
	if idx < uint64(len(d.spans)) && len(d.spans[idx]) > 0 {
		return d.spans[idx][0]
	}
	return nil
}

func (d *PageDir[P]) materialize(idx uint64) *P {
	d.spans = append(d.spans, make([][]*P, idx+1)...)
	return new(P)
}
