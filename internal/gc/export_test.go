package gc

import "tagfree/internal/code"

// Windows for the external test package onto the root source.

// ResolvedRoot is one job of taskJobs' list: the stack index, the type its
// routine traces as a ground descriptor, and the word the slot holds.
type ResolvedRoot struct {
	Idx  int
	Type *code.TypeDesc
	Word code.Word
}

// TaskJobs resolves one stopped task through taskJobs, in trace order, with
// the resolution counters discarded. Call it only while the heap is
// quiescent (PreCollect, or between a collection and the next allocation).
func (c *Collector) TaskJobs(t TaskRoots) []ResolvedRoot {
	c.sc.reset()
	var st Stats
	var out []ResolvedRoot
	for _, j := range c.taskJobs(t, &st) {
		out = append(out, ResolvedRoot{j.idx, typeDesc(j.g), t.Stack[j.idx]})
	}
	return out
}

// typeDesc reads a routine back as the ground descriptor it traces.
func typeDesc(g TypeGC) *code.TypeDesc {
	descs := func(gs ...TypeGC) []*code.TypeDesc {
		out := make([]*code.TypeDesc, len(gs))
		for i, g := range gs {
			out[i] = typeDesc(g)
		}
		return out
	}
	switch g := g.(type) {
	case *refG:
		return &code.TypeDesc{Kind: code.TDRef, Args: descs(g.elem)}
	case *tupleG:
		return &code.TypeDesc{Kind: code.TDTuple, Args: descs(g.fields...)}
	case *dataG:
		return &code.TypeDesc{Kind: code.TDData, Index: g.layoutID, Args: descs(g.args...)}
	case *arrowG:
		return &code.TypeDesc{Kind: code.TDArrow, Args: descs(g.dom, g.cod)}
	}
	return &code.TypeDesc{Kind: code.TDConst}
}
