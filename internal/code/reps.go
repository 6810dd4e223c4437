package code

import "strconv"

// RepTable is the runtime type-representation table: hash-consed, immortal
// descriptions of ground types. Rep handles are plain words (table
// indexes), so they live in frame slots and closure rep-words without
// participating in collection. Ground reps are interned at compile time;
// OpMkRep instructions build instantiated reps at run time from the
// caller's handles (the minimal runtime type information needed to trace
// escaping polymorphic-capture closures — the completeness gap of
// stack-only type reconstruction, quantified by experiment E8).
type RepTable struct {
	entries []RepEntry
	index   map[repKey]int
}

// RepEntry is one interned type representation.
type RepEntry struct {
	Kind     TDKind
	Index    int // datatype layout id for TDData
	Children []int
}

// NewRepTable returns an empty table.
func NewRepTable() *RepTable {
	return &RepTable{index: map[repKey]int{}}
}

// repKey is a representation as a map key. The first repKeyArity children
// are held inline, so looking up a rep of ordinary arity — every OpMkRep of
// a polymorphic call chain — allocates nothing; only the children past them
// spill into a string.
type repKey struct {
	kind     TDKind
	index, n int
	children [repKeyArity]int
	rest     string
}

const repKeyArity = 4

func makeRepKey(kind TDKind, index int, children []int) repKey {
	k := repKey{kind: kind, index: index, n: len(children)}
	if n := copy(k.children[:], children); n < len(children) {
		var rest []byte
		for _, c := range children[n:] {
			rest = append(strconv.AppendInt(rest, int64(c), 10), ',')
		}
		k.rest = string(rest)
	}
	return k
}

// Intern returns the handle for the given representation, creating it if
// needed.
func (t *RepTable) Intern(kind TDKind, index int, children []int) int {
	key := makeRepKey(kind, index, children)
	if h, ok := t.index[key]; ok {
		return h
	}
	h := len(t.entries)
	cs := make([]int, len(children))
	copy(cs, children)
	t.entries = append(t.entries, RepEntry{Kind: kind, Index: index, Children: cs})
	t.index[key] = h
	return h
}

// Entry returns the representation behind a handle.
func (t *RepTable) Entry(h int) RepEntry { return t.entries[h] }

// Len returns the number of interned representations.
func (t *RepTable) Len() int { return len(t.entries) }
