package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"repro/internal/comap"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/topogen"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

// cableShape is what distinguishes the cable workloads: the topology
// scale and the trace archive.
type cableShape struct {
	// regions is topogen.Scale.Regions; 0 keeps the paper-size topology.
	regions int
	// window is core.WithTraceWindow; 0 keeps the resident archive.
	window int
}

var (
	cable1x      = cableShape{}
	cable3xSpill = cableShape{regions: 3, window: 4096}
)

// minIterations keeps a median meaningful when one study outlasts the
// whole batch phase; minSetups does the same for setup_s, which is
// short enough to repeat on its own.
const (
	minIterations = 3
	minSetups     = 9
)

// spillWindow is the trace window of the spill-codec measurement on a
// resident workload, the same as cable-3x-spill's.
const spillWindow = 4096

func (sh cableShape) options(p params, spillDir string) []core.Option {
	opts := []core.Option{core.WithParallelism(runtime.NumCPU())}
	if p.budget > 0 {
		opts = append(opts, core.WithProbeBudget(p.budget))
	}
	if sh.regions > 1 {
		opts = append(opts, core.WithScale(topogen.Scale{Regions: sh.regions}))
	}
	if sh.window > 0 {
		opts = append(opts, core.WithTraceWindow(sh.window), core.WithSpillDir(spillDir))
	}
	return opts
}

// regiondArgs are the regiond flags that give it this topology and
// archive; spillDir is used by a windowed shape only.
func (sh cableShape) regiondArgs(spillDir string) []string {
	var args []string
	if sh.regions > 1 {
		args = append(args, "-regions", strconv.Itoa(sh.regions))
	}
	if sh.window > 0 {
		args = append(args, "-trace-window", strconv.Itoa(sh.window), "-spill-dir", spillDir)
	}
	return args
}

// spillDir makes a fresh spill directory for a windowed study; the
// returned function removes it. Resident studies get no directory.
func (sh cableShape) spillDir(p params) (string, func(), error) {
	if sh.window == 0 {
		return "", func() {}, nil
	}
	dir, err := os.MkdirTemp(p.workdir, "spill-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// verifier checks each operator's result: its report digest against
// the pinned one (default configuration) or against the first digest
// this run produced (any other seed), plus the probe ledger and the
// snapshot's content digest.
type verifier struct {
	pinned    map[string]string
	first     map[string]string
	attempted int
	failed    int
	out       io.Writer
}

func newVerifier(p params, workload string, out io.Writer) *verifier {
	v := &verifier{first: map[string]string{}, out: out}
	pins := p.pins
	if pins == nil && p.budget == 0 {
		pins = pinnedDigests
	}
	v.pinned = pins[fmt.Sprintf("%s/%d", workload, p.seed)]
	return v
}

// check records one operator campaign as attempted, and as failed
// unless every check passes.
func (v *verifier) check(isp string, res *comap.Result, snap *snapshot.Snapshot) {
	v.attempted++
	digest, err := reportDigest(res, isp)
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case !res.Collection.Stats.Consistent():
		why = fmt.Sprintf("probe ledger inconsistent: %+v", res.Collection.Stats)
	case !snap.Consistent():
		why = "snapshot content digest does not re-derive"
	case v.pinned != nil && v.pinned[isp] != digest:
		why = fmt.Sprintf("report digest %s, pinned %s", digest, v.pinned[isp])
	case v.pinned == nil && v.first[isp] != "" && v.first[isp] != digest:
		why = fmt.Sprintf("report digest %s, first run of this seed gave %s", digest, v.first[isp])
	}
	if v.first[isp] == "" && err == nil {
		v.first[isp] = digest
	}
	if why != "" {
		v.failed++
		fmt.Fprintf(v.out, "# FAIL %s: %s\n", isp, why)
	}
}

// reportDigest is the SHA-256 of the operator's indented report JSON,
// the artifact regiond serves from /v1/report.
func reportDigest(res *comap.Result, isp string) (string, error) {
	h := sha256.New()
	if err := res.WriteJSON(h, isp); err != nil {
		return "", fmt.Errorf("encoding %s report: %w", isp, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func snapshotMeta(p params, isp string) snapshot.Meta {
	return snapshot.Meta{Study: "cable", ISP: isp, Seed: p.seed}
}

// cableSample is one untraced study: its end-to-end figures.
type cableSample struct {
	setup, study, cpu, alloc float64
}

// cableIteration builds the study, runs both operators' campaigns and
// snapshot compiles, and verifies every output after the clock stops.
// It returns comcast's snapshot, the operator regiond serves by default.
func cableIteration(p params, sh cableShape, v *verifier) (cableSample, *snapshot.Snapshot, error) {
	var s cableSample
	dir, cleanup, err := sh.spillDir(p)
	if err != nil {
		return s, nil, err
	}
	defer cleanup()
	opts := sh.options(p, dir)

	runtime.GC()
	t0 := time.Now()
	st, err := core.NewStudy("cable", p.seed, opts...)
	if err != nil {
		return s, nil, err
	}
	s.setup = time.Since(t0).Seconds()

	cpu0, alloc0 := cpuSeconds(), heapAllocs()
	t1 := time.Now()
	res, err := st.Run(context.Background())
	if err != nil {
		return s, nil, err
	}
	snaps := make([]*snapshot.Snapshot, len(res.CableISPs))
	for i, isp := range res.CableISPs {
		if snaps[i], err = snapshot.Build(snapshotMeta(p, isp), res.Cable[isp]); err != nil {
			return s, nil, err
		}
	}
	s.study = time.Since(t1).Seconds()
	s.cpu = cpuSeconds() - cpu0
	s.alloc = mb(heapAllocs() - alloc0)

	var comcast *snapshot.Snapshot
	for i, isp := range res.CableISPs {
		v.check(isp, res.Cable[isp], snaps[i])
		if isp == "comcast" {
			comcast = snaps[i]
		}
	}
	if c, ok := st.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return s, nil, fmt.Errorf("releasing spill: %w", err)
		}
	}
	return s, comcast, nil
}

// setupOnly times core.NewStudy alone, for extra setup_s samples.
func setupOnly(p params, sh cableShape) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	// The study never runs, so it needs no spill directory.
	_, err := core.NewStudy("cable", p.seed, sh.options(p, "")...)
	return time.Since(t0).Seconds(), err
}

// batchShare is the part of the measured time the batch phase (the
// in-process studies) gets; the serve phase gets the rest.
const batchShare = 0.5

// runWorkload runs one invocation: the batch phase (untraced studies,
// or traced rounds with -trace 1) for batchShare of the measured time,
// then the serve phase against a regiond booted on the same topology.
// Every operation is verified: each operator campaign, then each HTTP
// response against answers computed from the batch phase's first
// comcast snapshot.
func runWorkload(p params, sh cableShape, out io.Writer) (*report, error) {
	v := newVerifier(p, p.workload, out)
	batch := time.Duration(batchShare * p.seconds * float64(time.Second))
	var m map[string]float64
	var ref *snapshot.Snapshot
	var refOK bool
	var err error
	if p.trace {
		m, ref, refOK, err = traceCable(p, sh, v, batch, out)
	} else {
		m, ref, refOK, err = runCable(p, sh, v, batch, out)
	}
	if err != nil {
		return nil, err
	}
	serveFor := time.Duration(p.seconds*float64(time.Second)) - batch
	sm, attempted, failed, err := serve(p, sh, ref, refOK, serveFor, out)
	if err != nil {
		return nil, err
	}
	for k, x := range sm {
		m[k] = x
	}
	rep := &report{attempted: v.attempted + attempted, failed: v.failed + failed, metrics: m}
	m["ok_ratio"] = okRatio(rep.attempted, rep.failed)
	return rep, nil
}

// runCable is the untraced batch phase: whole studies for d (at least
// minIterations), then extra set-ups up to minSetups. It returns
// the medians, the first study's comcast snapshot and whether that
// study passed its checks.
func runCable(p params, sh cableShape, v *verifier, d time.Duration, out io.Writer) (map[string]float64, *snapshot.Snapshot, bool, error) {
	var setups, studies, cpus, allocs []float64
	var ref *snapshot.Snapshot
	refOK := false
	start := time.Now()
	for i := 0; another(i, minIterations, start, d); i++ {
		failed := v.failed
		s, snap, err := cableIteration(p, sh, v)
		if err != nil {
			return nil, nil, false, err
		}
		if ref == nil {
			ref, refOK = snap, v.failed == failed
		}
		fmt.Fprintf(out, "# iteration %d: setup %.4fs study %.4fs cpu %.4fs alloc %.1fMB\n",
			i+1, s.setup, s.study, s.cpu, s.alloc)
		setups = append(setups, s.setup)
		studies = append(studies, s.study)
		cpus = append(cpus, s.cpu)
		allocs = append(allocs, s.alloc)
	}
	for len(setups) < minSetups {
		s, err := setupOnly(p, sh)
		if err != nil {
			return nil, nil, false, err
		}
		fmt.Fprintf(out, "# setup %.4fs\n", s)
		setups = append(setups, s)
	}
	fmt.Fprintf(out, "# %d studies, %d setups; medians reported\n", len(studies), len(setups))
	return map[string]float64{
		"setup_s":     median(setups),
		"study_s":     median(studies),
		"cpu_s":       median(cpus),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": peakRSSMB(),
	}, ref, refOK, nil
}

// another reports whether a phase that started at start and has done
// done repetitions runs one more: always below min, otherwise only if
// one more, taking the mean so far, still ends within d.
func another(done, min int, start time.Time, d time.Duration) bool {
	if done < min {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(done) <= d
}

func okRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// layerSample is one traced study, split by layer.
type layerSample struct {
	topogen, collect, mapping, graph, report, snapshot float64
	collectAlloc, mappingAlloc, graphAlloc             float64
	total                                              float64 // study wall time, traced
	routers                                            int
	sent, traces, kept, hopsProbed, hopsAnswered       int
	aliasTargets, aliasGroups                          int
	cos, addrs                                         int
	gcCycles                                           uint64
	spillBytes                                         int64
	replay                                             float64
	snaps                                              map[string]*snapshot.Snapshot
}

// tracedStudy assembles the cable pipeline from the public calls
// core.CableStudy and comap.RunContext make, timing each layer from
// here: topology, per-operator collection, mapping, graphs, coverage
// and report, snapshot compile. With noAlias it runs only collection,
// with alias resolution skipped: the baseline alias.resolve_s is
// measured against.
func tracedStudy(p params, sh cableShape, v *verifier, noAlias bool) (layerSample, error) {
	var s layerSample
	dir, cleanup, err := sh.spillDir(p)
	if err != nil {
		return s, err
	}
	defer cleanup()
	sc := topogen.Scale{Regions: sh.regions}
	workers := runtime.NumCPU()

	runtime.GC()
	t := time.Now()
	scen := topogen.NewScenario(p.seed)
	comcast := scen.BuildCable(topogen.ComcastProfile().Scaled(sc))
	charter := scen.BuildCable(topogen.CharterProfile().Scaled(sc))
	vps := scen.StandardVPs(comcast, charter)
	s.topogen = time.Since(t).Seconds()
	s.routers = len(scen.Net.Routers())

	type operator struct {
		isp   string
		truth *topogen.ISP
		res   *comap.Result
		snap  *snapshot.Snapshot
	}
	ops := []*operator{{isp: "comcast", truth: comcast}, {isp: "charter", truth: charter}}
	timed := func(dst, alloc *float64, f func() error) error {
		a0, t0 := heapAllocs(), time.Now()
		err := f()
		*dst += time.Since(t0).Seconds()
		if alloc != nil {
			*alloc += mb(heapAllocs() - a0)
		}
		return err
	}

	gc0 := gcCycles()
	studyStart := time.Now()
	for _, op := range ops {
		c := &comap.Campaign{
			Net:         scen.Net,
			DNS:         scen.DNS,
			Clock:       vclock.New(scen.Epoch()),
			ISP:         op.isp,
			Seed:        p.seed,
			VPs:         vps,
			Announced:   op.truth.Announced,
			Parallelism: workers,
			MaxTraces:   p.budget,
			TraceWindow: sh.window,
			SpillDir:    dir,
			SkipAlias:   noAlias,
		}
		var col *comap.Collection
		if err := timed(&s.collect, &s.collectAlloc, func() (err error) {
			col, err = c.RunContext(context.Background())
			return err
		}); err != nil {
			return s, err
		}
		op.res = &comap.Result{Collection: col, Seed: p.seed}
		if noAlias {
			continue
		}
		timed(&s.mapping, &s.mappingAlloc, func() error {
			op.res.Mapping = comap.BuildMappingParallel(col, scen.DNS, op.isp, workers)
			return nil
		})
		timed(&s.graph, &s.graphAlloc, func() error {
			op.res.Inference = comap.BuildGraphsParallel(col, op.res.Mapping, workers)
			return nil
		})
		timed(&s.report, nil, func() error {
			op.res.Coverage = comap.BuildCoverage(col, op.res.Inference)
			op.res.BuildReport(op.isp)
			return nil
		})
		if err := timed(&s.snapshot, nil, func() (err error) {
			op.snap, err = snapshot.Build(snapshotMeta(p, op.isp), op.res)
			return err
		}); err != nil {
			return s, err
		}
	}
	s.total = time.Since(studyStart).Seconds()
	s.gcCycles = gcCycles() - gc0

	// Counts, checks and the spill replay run after the clock stops.
	s.snaps = map[string]*snapshot.Snapshot{}
	for _, op := range ops {
		col := op.res.Collection
		s.sent += col.Stats.Sent
		s.traces += col.TracesRun
		s.kept += col.TracesRun - col.EmptyTraces
		s.hopsProbed += col.HopRowsProbed
		s.hopsAnswered += col.HopRowsAnswered
		s.aliasTargets += len(col.AliasTargets)
		if col.Aliases != nil {
			s.aliasGroups += len(col.Aliases.Groups())
		}
		if sh.window > 0 {
			log := filepath.Join(dir, "traces-"+op.isp+".seg")
			fi, err := os.Stat(log)
			if err != nil {
				return s, fmt.Errorf("spill log: %w", err)
			}
			s.spillBytes += fi.Size()
			d, err := replayLog(log)
			if err != nil {
				return s, err
			}
			s.replay += d
		}
		if !noAlias {
			st := op.snap.Stats()
			s.cos += st.COs
			s.addrs += st.Addrs
			s.snaps[op.isp] = op.snap
			v.check(op.isp, op.res, op.snap)
		}
		if err := op.res.Close(); err != nil {
			return s, fmt.Errorf("releasing spill: %w", err)
		}
	}
	return s, nil
}

// replayLog times one full decode pass over a spill log.
func replayLog(path string) (float64, error) {
	t := time.Now()
	r, err := traceroute.OpenSegmentLog(path)
	if err != nil {
		return 0, err
	}
	var seg traceroute.Segment
	for {
		more, err := r.Next(&seg)
		if err != nil {
			r.Close()
			return 0, fmt.Errorf("replaying %s: %w", path, err)
		}
		if !more {
			break
		}
	}
	if err := r.Close(); err != nil {
		return 0, err
	}
	return time.Since(t).Seconds(), nil
}

// traceCable is the traced batch phase: rounds of (untraced study,
// traced study, collection without alias resolution) for d (at least
// one), reported as per-layer medians. The traced study must reproduce the
// untraced study's report digests: it is the same work, only timed in
// pieces. The spill figures come from the collection without alias
// resolution, windowed at spillWindow traces: on cable-3x-spill that
// is the alias baseline itself, on a resident workload one more run.
// It returns the first traced study's comcast snapshot and whether
// that study passed its checks.
func traceCable(p params, sh cableShape, v *verifier, d time.Duration, out io.Writer) (map[string]float64, *snapshot.Snapshot, bool, error) {
	m := map[string][]float64{}
	add := func(k string, x float64) { m[k] = append(m[k], x) }
	var ref *snapshot.Snapshot
	refOK := false
	start := time.Now()
	for round := 1; another(round-1, 1, start, d); round++ {
		plain, _, err := cableIteration(p, sh, v)
		if err != nil {
			return nil, nil, false, err
		}
		failed := v.failed
		s, err := tracedStudy(p, sh, v, false)
		if err != nil {
			return nil, nil, false, err
		}
		if ref == nil {
			ref, refOK = s.snaps["comcast"], v.failed == failed
		}
		noAlias, err := tracedStudy(p, sh, v, true)
		if err != nil {
			return nil, nil, false, err
		}
		spilled := noAlias
		if sh.window == 0 {
			spillShape := sh
			spillShape.window = spillWindow
			if spilled, err = tracedStudy(p, spillShape, v, true); err != nil {
				return nil, nil, false, err
			}
		}
		layers := s.collect + s.mapping + s.graph + s.report + s.snapshot
		fmt.Fprintf(out, "# round %d: untraced study %.4fs, traced %.4fs (layers %.4fs), collect without alias %.4fs\n",
			round, plain.study, s.total, layers, noAlias.collect)
		add("topogen.build_s", s.topogen)
		add("topogen.routers", float64(s.routers))
		add("comap.collect_s", s.collect)
		add("comap.collect_alloc_mb", s.collectAlloc)
		add("netsim.probes_sent", float64(s.sent))
		add("netsim.probes_per_s", float64(noAlias.sent)/noAlias.collect)
		add("traceroute.traces", float64(s.traces))
		add("traceroute.kept_ratio", float64(s.kept)/float64(s.traces))
		add("traceroute.hop_yield", float64(s.hopsAnswered)/float64(s.hopsProbed))
		add("traceroute.spill_mb", mb(uint64(spilled.spillBytes)))
		add("traceroute.replay_s", spilled.replay)
		add("alias.resolve_s", s.collect-noAlias.collect)
		add("alias.targets", float64(s.aliasTargets))
		add("alias.groups", float64(s.aliasGroups))
		add("comap.mapping_s", s.mapping)
		add("comap.mapping_alloc_mb", s.mappingAlloc)
		add("comap.graph_s", s.graph)
		add("comap.graph_alloc_mb", s.graphAlloc)
		add("comap.report_s", s.report)
		add("snapshot.build_s", s.snapshot)
		add("snapshot.cos", float64(s.cos))
		add("snapshot.addrs", float64(s.addrs))
		add("runtime.gc_cycles", float64(s.gcCycles))
		add("bench.trace_overhead_s", s.total-plain.study)
		add("bench.layer_share", layers/s.total)
	}
	res := map[string]float64{}
	for k, xs := range m {
		res[k] = median(xs)
	}
	return res, ref, refOK, nil
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

// heapAllocs is the cumulative heap bytes allocated by this process.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func gcCycles() uint64 {
	metrics.Read(allocSample)
	return allocSample[1].Value.Uint64()
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
