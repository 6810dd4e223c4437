package gc

import (
	"encoding/binary"

	"tagfree/internal/code"
)

// The interpreted method (Branquart & Lewi 1970; Britton 1975) stores each
// site's frame map as a compact byte string and decodes it during every
// collection. Compared with compiled routines the metadata is much
// smaller, but each trace pays a decoding cost — the space/time trade-off
// the paper defers to experiments (§2.4), measured here as E4.
//
// Encoding (all integers unsigned varints):
//
//	site    := count (slot desc)*
//	desc    := kind rest
//	rest    := ε                      kind ∈ {const, opaque}
//	         | index                  kind = var
//	         | desc                   kind = ref
//	         | count desc*            kind = tuple
//	         | index count desc*      kind = data
//	         | desc desc              kind = arrow
func encodeSite(si *code.SiteInfo) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(si.Live)))
	for _, e := range si.Live {
		out = binary.AppendUvarint(out, uint64(e.Slot))
		out = encodeDesc(out, e.Desc)
	}
	return out
}

func encodeDesc(out []byte, d *code.TypeDesc) []byte {
	out = binary.AppendUvarint(out, uint64(d.Kind))
	switch d.Kind {
	case code.TDConst, code.TDOpaque:
	case code.TDVar:
		out = binary.AppendUvarint(out, uint64(d.Index))
	case code.TDRef:
		out = encodeDesc(out, d.Args[0])
	case code.TDTuple:
		out = binary.AppendUvarint(out, uint64(len(d.Args)))
		for _, a := range d.Args {
			out = encodeDesc(out, a)
		}
	case code.TDData:
		out = binary.AppendUvarint(out, uint64(d.Index))
		out = binary.AppendUvarint(out, uint64(len(d.Args)))
		for _, a := range d.Args {
			out = encodeDesc(out, a)
		}
	case code.TDArrow:
		out = encodeDesc(out, d.Args[0])
		out = encodeDesc(out, d.Args[1])
	}
	return out
}

// interpFrameJobs decodes a site descriptor into root jobs — the decoding
// cost every collection pays under this method, counted in DescBytesDecoded.
func (c *Collector) interpFrameJobs(jobs []rootJob, buf []byte, base int, targs []TypeGC) []rootJob {
	r := &descReader{buf: buf}
	n := r.uvarint()
	for i := 0; i < n; i++ {
		slot := r.uvarint()
		jobs = append(jobs, genericJob(base+slot, c.decodeDesc(r, targs)))
	}
	c.Stats.DescBytesDecoded += int64(len(buf))
	return jobs
}

type descReader struct {
	buf []byte
	pos int
}

func (r *descReader) uvarint() int {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		panic("gc: malformed frame descriptor")
	}
	r.pos += n
	return int(v)
}

// decodeDesc interprets one descriptor, building the (memoized) routine.
// Components decode into a stack buffer (the builder copies what it keeps),
// so decoding a type already built allocates nothing.
func (c *Collector) decodeDesc(r *descReader, targs []TypeGC) TypeGC {
	var buf [4]TypeGC
	kind := code.TDKind(r.uvarint())
	switch kind {
	case code.TDConst, code.TDOpaque:
		return c.b.Const()
	case code.TDVar:
		idx := r.uvarint()
		if idx < len(targs) && targs[idx] != nil {
			return targs[idx]
		}
		return c.b.Const()
	case code.TDRef:
		return c.b.Ref(c.decodeDesc(r, targs))
	case code.TDTuple:
		fields := buf[:0]
		for n := r.uvarint(); n > 0; n-- {
			fields = append(fields, c.decodeDesc(r, targs))
		}
		return c.b.Tuple(fields)
	case code.TDData:
		idx, args := r.uvarint(), buf[:0]
		for n := r.uvarint(); n > 0; n-- {
			args = append(args, c.decodeDesc(r, targs))
		}
		return c.b.Data(idx, c.Prog.Data[idx], args)
	case code.TDArrow:
		dom := c.decodeDesc(r, targs)
		cod := c.decodeDesc(r, targs)
		return c.b.Arrow(dom, cod)
	}
	panic("gc: unknown descriptor kind in frame map")
}
