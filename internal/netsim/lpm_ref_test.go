package netsim

import (
	"net/netip"
	"sort"
)

// lpmIndex is the retired per-bit-length masked-prefix FIB, kept as
// the differential-test reference implementation: one masked-prefix
// hash table per distinct bit length, probed longest-first.
type lpmIndex struct {
	// lens holds the distinct prefix bit lengths present, longest first.
	lens []int
	// tables[i] maps a destination masked to lens[i] bits to its owner.
	tables []map[netip.Addr]*prefixOwner
}

// buildLPM compiles the general (non-shortcut) owner list. Later
// declarations of an identical prefix override earlier ones, matching
// the linear scan's behaviour of keeping the first best only when bit
// lengths strictly increase — identical-length duplicates never both
// won under the scan either, and generators do not declare duplicates.
func buildLPM(owners []prefixOwner) *lpmIndex {
	byLen := map[int]map[netip.Addr]*prefixOwner{}
	for i := range owners {
		po := &owners[i]
		bits := po.prefix.Bits()
		t := byLen[bits]
		if t == nil {
			t = map[netip.Addr]*prefixOwner{}
			byLen[bits] = t
		}
		key := po.prefix.Masked().Addr()
		if _, taken := t[key]; !taken {
			// First declaration wins, mirroring the linear scan: it kept
			// the earliest owner among equal-length matches.
			t[key] = po
		}
	}
	x := &lpmIndex{}
	for bits := range byLen {
		x.lens = append(x.lens, bits)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(x.lens)))
	x.tables = make([]map[netip.Addr]*prefixOwner, len(x.lens))
	for i, bits := range x.lens {
		x.tables[i] = byLen[bits]
	}
	return x
}

// lookup returns the longest-prefix owner covering dst, or nil.
func (x *lpmIndex) lookup(dst netip.Addr) *prefixOwner {
	for i, bits := range x.lens {
		p, err := dst.Prefix(bits)
		if err != nil {
			// Bit length exceeds the address family width (e.g. a v6
			// prefix probed with a v4 destination): no such owner can
			// contain dst.
			continue
		}
		if po, ok := x.tables[i][p.Addr()]; ok {
			return po
		}
	}
	return nil
}
