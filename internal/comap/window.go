package comap

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/probesched"
	"repro/internal/traceroute"
)

// The path archive has one contract: Collection.replay streams it
// window-at-a-time, and every inference pass is a fold over those
// windows. A resident campaign (TraceWindow == 0) holds its archive as
// one in-memory window with no encoding. A windowed campaign encodes
// each kept trace into a traceroute segment log instead, sealed every
// TraceWindow traces (and at stage boundaries), and replays the log
// window-at-a-time — resident path memory is O(window) regardless of
// campaign size. Both shapes build their Path values through carvePath
// (same responsive-hop filtering, same gap tracking, same order), which
// is why the golden digests are bit-identical at any window size.

// spillArchive is the on-disk form of a Collection's path archive.
type spillArchive struct {
	logPath string
	// dir is removed on Close when the archive created it (the default
	// SpillDir="" case); a caller-provided directory is left alone.
	dir     string
	ownsDir bool
}

// newSpillArchive places the segment log in dir, or in a fresh
// .spill-* directory under the working directory when dir is empty.
// name is the log's file name: campaigns derive it from the ISP under
// study, so two campaigns sharing one caller-provided SpillDir (the
// cable study probes comcast and charter back to back) never clobber
// each other's logs — which matters once durable logs outlive the
// process that wrote them.
func newSpillArchive(dir, name string) (*spillArchive, error) {
	sp := &spillArchive{dir: dir}
	if sp.dir == "" {
		d, err := os.MkdirTemp(".", ".spill-")
		if err != nil {
			return nil, err
		}
		sp.dir, sp.ownsDir = d, true
	}
	sp.logPath = filepath.Join(sp.dir, name)
	return sp, nil
}

// Close removes the spill files (and the directory, when owned). The
// log's durable manifest, when one exists, goes with it: Close means
// the campaign was consumed, so the crash-recovery state is garbage.
func (sp *spillArchive) Close() error {
	if sp == nil {
		return nil
	}
	if sp.ownsDir {
		return os.RemoveAll(sp.dir)
	}
	err := os.Remove(sp.logPath)
	mp := traceroute.ManifestPath(sp.logPath)
	for _, p := range []string{mp, mp + ".tmp"} {
		if rmErr := os.Remove(p); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
			err = rmErr
		}
	}
	return err
}

// carvePath builds the Path of one kept trace: its responsive hops in
// TTL order, each gap-marked when silent hops preceded it. hops and
// gaps must hold at least the trace's responsive-hop count; the Path's
// slices are carved from their front, capacity-clamped so an append on
// one path can never bleed into the next path's region.
func carvePath(tv *traceroute.TraceView, stage string, hops []netip.Addr, gaps []bool) Path {
	w := 0
	gap := false
	for k := 0; k < tv.NumHops(); k++ {
		if !tv.HopResponded(k) {
			gap = true
			continue
		}
		hops[w] = tv.Hop(k).Addr
		gaps[w] = gap
		gap = false
		w++
	}
	return Path{
		Src: tv.Src, Dst: tv.Dst, Reached: tv.Reached, Stage: stage,
		Hops: hops[:w:w],
		Gaps: gaps[:w:w],
	}
}

// responsiveHops counts the trace's hop rows that produced an answer.
func responsiveHops(tv *traceroute.TraceView) int {
	n := 0
	for k := 0; k < tv.NumHops(); k++ {
		if tv.HopResponded(k) {
			n++
		}
	}
	return n
}

// windowScratch is the pooled decode state one replay pass cycles
// through: the reusable Segment plus the Path/hop/gap arenas the
// window's paths are carved from. Everything is sized once per window
// (capacities kept across windows), so a full-archive replay allocates
// only on high-water-mark growth.
type windowScratch struct {
	seg   traceroute.Segment
	paths []Path
	hops  []netip.Addr
	gaps  []bool
}

var windowScratches = sync.Pool{New: func() any { return new(windowScratch) }}

// decode converts the scratch's current segment into Path values. The
// arenas are grown to final size before any sub-slice is carved, so a
// later trace's rows can never reallocate an earlier path's backing
// array.
func (ws *windowScratch) decode() []Path {
	n := ws.seg.NumTraces()
	total := 0
	for i := 0; i < n; i++ {
		tv := ws.seg.View(i)
		total += responsiveHops(&tv)
	}
	if cap(ws.hops) < total {
		ws.hops = make([]netip.Addr, total)
		ws.gaps = make([]bool, total)
	}
	paths := ws.paths[:0]
	off := 0
	for i := 0; i < n; i++ {
		tv := ws.seg.View(i)
		p := carvePath(&tv, ws.seg.Stage, ws.hops[off:total], ws.gaps[off:total])
		off += len(p.Hops)
		paths = append(paths, p)
	}
	ws.paths = paths
	return paths
}

// replay streams the archive through fn in collection order, one
// window per call: the resident archive is a single window, a spilled
// one is its segment log's windows in log order. base is the global
// index of the window's first path, so base+j addresses path j of the
// whole archive. Spilled windows' Path values are valid only during the
// callback (arenas recycle).
//
// Do not split the resident archive into several windows (one per
// stage, say): every window runs its own probesched.Reduce, and the
// passes presize each Reduce span's maps from whole-archive hints, so
// extra windows multiply those allocations.
//
// Decode failures panic: the log was written by this process moments
// ago, so a bad frame is a programming error or disk fault, not an
// input condition the pipeline can recover from.
func (c *Collection) replay(fn func(base int, paths []Path)) {
	if c.spill == nil {
		fn(0, c.paths)
		return
	}
	r, err := traceroute.OpenSegmentLog(c.spill.logPath)
	if err != nil {
		panic(fmt.Errorf("comap: replaying spill archive: %w", err))
	}
	defer r.Close()
	ws := windowScratches.Get().(*windowScratch)
	defer windowScratches.Put(ws)
	base := 0
	for {
		ok, err := r.Next(&ws.seg)
		if err != nil {
			panic(fmt.Errorf("comap: replaying spill archive: %w", err))
		}
		if !ok {
			break
		}
		paths := ws.decode()
		fn(base, paths)
		base += len(paths)
	}
	if base != c.nPaths {
		panic(fmt.Sprintf("comap: spill archive replayed %d paths, recorded %d", base, c.nPaths))
	}
}

// NumPaths reports the archive size.
func (c *Collection) NumPaths() int { return c.nPaths }

// EachPath visits every collected path in canonical (submission) order
// with its global index. Path values are valid only during the
// callback.
func (c *Collection) EachPath(fn func(i int, p Path)) {
	c.replay(func(base int, paths []Path) {
		for j, p := range paths {
			fn(base+j, p)
		}
	})
}

// Close releases the collection's spill files, if any. A resident
// archive needs no cleanup; Close is idempotent.
func (c *Collection) Close() error {
	sp := c.spill
	c.spill = nil
	return sp.Close()
}

// foldPaths is the inference passes' shard-accumulate-merge over the
// archive: the same (init, accum, merge) contract as probesched.Reduce,
// with accum handed the path directly so it never indexes an archive.
//
// Each replayed window reduces across the pool's workers, and window
// accumulators merge in window order. Because windows partition the
// global index range contiguously and in order, this is the same shard
// structure Reduce itself builds — for the concatenation-homomorphic
// (accum, merge) pairs the passes use, the result is identical for any
// window size and worker count.
func foldPaths[A any](pool *probesched.Pool, col *Collection, init func() A,
	accum func(a A, i int, p Path) A,
	merge func(into, from A) A) A {
	var acc A
	first := true
	col.replay(func(base int, paths []Path) {
		part := probesched.Reduce(pool, len(paths), init,
			func(a A, j int) A { return accum(a, base+j, paths[j]) },
			merge)
		if first {
			acc, first = part, false
		} else {
			acc = merge(acc, part)
		}
	})
	if first {
		return init()
	}
	return acc
}
