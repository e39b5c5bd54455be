package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/snapshot"
)

// The serve phase's op mix is cmd/regiond/loadgen.go's, sent over HTTP.
const (
	opAddr = iota
	opPrefix
	opRegion
	opStats
	opRange
	numOps
)

var opWeights = [numOps]int{55, 15, 10, 10, 10}

const (
	// warmup is the unrecorded start of each boot's load phase: the
	// first requests pay connection set-up and first-touch page faults
	// that no steady-state client sees again.
	warmup = 250 * time.Millisecond
	// numQueries is the precomputed query list the clients cycle.
	numQueries = 1024
	// missEvery plants one address lookup in this many outside every
	// snapshot (RFC 2544 benchmarking space), so the 404 path is served
	// and checked too.
	missEvery = 10
	// requestTimeout fails a request that has no complete reply by then.
	requestTimeout = 5 * time.Second
	// clients is the closed loop's concurrency. One client and the
	// server it waits on fill a 2-vCPU machine: a second client's /16
	// dumps stall the first one's small lookups at random, and on a few
	// cores latency then measures that interleaving, not the server.
	clients = 1
)

// query is one request with the answer it must get, precomputed from
// an in-process snapshot of the same seed before any timing starts.
type query struct {
	op     int
	path   string
	addr   netip.Addr   // opAddr
	prefix netip.Prefix // opPrefix, opRange
	status int
	keys   []string // CO keys: the hit (addr), the range (prefix), the region's COs
	name   string   // region name
	stats  snapshot.Stats
	// digest is the body the priming pass decoded and verified, hashed
	// with digestSeed; verified says there is one.
	digest   uint64
	verified bool
}

var digestSeed = maphash.MakeSeed()

func buildQueries(snap *snapshot.Snapshot, seed int64, out io.Writer) ([]query, error) {
	var addrs []netip.Addr
	var prefixes, ranges []netip.Prefix
	seen16 := map[netip.Prefix]bool{}
	for _, co := range snap.LookupPrefix(netip.MustParsePrefix("0.0.0.0/0")) {
		addrs = append(addrs, co.Addrs...)
		if p, err := co.Addrs[0].Prefix(24); err == nil {
			prefixes = append(prefixes, p)
		}
		if p, err := co.Addrs[0].Prefix(16); err == nil && !seen16[p] {
			seen16[p] = true
			ranges = append(ranges, p)
		}
	}
	regions := snap.RegionNames()
	if len(addrs) == 0 || len(regions) == 0 {
		return nil, fmt.Errorf("snapshot has no addresses or regions to query")
	}
	keysOf := func(cos []snapshot.CO) []string {
		keys := make([]string, len(cos))
		for i, co := range cos {
			keys[i] = co.Key
		}
		return keys
	}
	// Every seed's list holds each op in exact proportion to its weight,
	// in a seeded order, and each op walks a seeded permutation of its
	// candidates, so all of them are queried evenly. The mix and the
	// spread of reply sizes then vary between seeds only as much as the
	// topologies do.
	total := 0
	for _, w := range opWeights {
		total += w
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]int, 0, numQueries)
	for op, w := range opWeights {
		for n := numQueries * w / total; n > 0; n-- {
			ops = append(ops, op)
		}
	}
	for len(ops) < numQueries {
		ops = append(ops, opAddr)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	rng.Shuffle(len(prefixes), func(i, j int) { prefixes[i], prefixes[j] = prefixes[j], prefixes[i] })
	rng.Shuffle(len(ranges), func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
	rng.Shuffle(len(regions), func(i, j int) { regions[i], regions[j] = regions[j], regions[i] })
	var seen [numOps]int
	qs := make([]query, numQueries)
	for i, op := range ops {
		k := seen[op]
		seen[op]++
		q := query{op: op, status: http.StatusOK}
		switch op {
		case opAddr:
			a := addrs[k%len(addrs)]
			if k%missEvery == missEvery-1 {
				a = netip.AddrFrom4([4]byte{198, 18 + byte(rng.Intn(2)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			}
			q.addr = a
			q.path = "/v1/lookup?addr=" + a.String()
			if co, ok := snap.LookupAddr(a); ok {
				q.keys = []string{co.Key}
			} else {
				q.status = http.StatusNotFound
			}
		case opPrefix, opRange:
			p := prefixes[k%len(prefixes)]
			if op == opRange {
				p = ranges[k%len(ranges)]
			}
			q.prefix = p
			q.path = "/v1/lookup?prefix=" + p.String()
			q.keys = keysOf(snap.LookupPrefix(p))
		case opRegion:
			q.name = regions[k%len(regions)]
			q.path = "/v1/region/" + q.name
			rr, _ := snap.Region(q.name)
			for _, co := range rr.COs {
				q.keys = append(q.keys, co.Key)
			}
		case opStats:
			q.path = "/v1/stats"
			q.stats = snap.Stats()
		}
		qs[i] = q
	}
	fmt.Fprintf(out, "# query candidates: %d addresses, %d /24 prefixes, %d /16 ranges, %d regions\n",
		len(addrs), len(prefixes), len(ranges), len(regions))
	return qs, nil
}

type keyed struct {
	Key string `json:"key"`
}

// verify checks one response against the precomputed answer.
func (q *query) verify(status int, body []byte) error {
	if status != q.status {
		return fmt.Errorf("status %d, want %d", status, q.status)
	}
	if status != http.StatusOK {
		return nil
	}
	var got []string
	switch q.op {
	case opAddr:
		var co keyed
		if err := json.Unmarshal(body, &co); err != nil {
			return err
		}
		got = []string{co.Key}
	case opPrefix, opRange:
		var cos []keyed
		if err := json.Unmarshal(body, &cos); err != nil {
			return err
		}
		got = make([]string, len(cos))
		for i, co := range cos {
			got[i] = co.Key
		}
	case opRegion:
		var rr struct {
			Name string  `json:"name"`
			COs  []keyed `json:"cos"`
		}
		if err := json.Unmarshal(body, &rr); err != nil {
			return err
		}
		if rr.Name != q.name {
			return fmt.Errorf("region %q, want %q", rr.Name, q.name)
		}
		for _, co := range rr.COs {
			got = append(got, co.Key)
		}
	case opStats:
		var st snapshot.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		w := q.stats
		if st.ISP != w.ISP || st.Seed != w.Seed || st.Regions != w.Regions || st.COs != w.COs ||
			st.AggCOs != w.AggCOs || st.Edges != w.Edges || st.Addrs != w.Addrs {
			return fmt.Errorf("stats %+v, want %+v", st, w)
		}
		return nil
	}
	if !slices.Equal(got, q.keys) {
		return fmt.Errorf("CO keys %v, want %v", got, q.keys)
	}
	return nil
}

// check verifies a timed reply. A body identical to the one the
// priming pass decoded and verified is the same correct answer; any
// other body is decoded and checked in full.
func (q *query) check(status int, body []byte) error {
	if q.verified && status == q.status && maphash.Bytes(digestSeed, body) == q.digest {
		return nil
	}
	return q.verify(status, body)
}

// loadStats is what one client (or, merged, one run) observed.
type loadStats struct {
	attempted, failed int
	// lat holds every recorded request's latency in ms, failures as the
	// client timeout so they miss any latency limit; perOp splits it by
	// op.
	lat      []float64
	perOp    [numOps][]float64
	okCount  int // recorded requests answered correctly
	bytes    int64
	firstErr error
}

func (l *loadStats) merge(o *loadStats) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.lat = append(l.lat, o.lat...)
	for i := range l.perOp {
		l.perOp[i] = append(l.perOp[i], o.perOp[i]...)
	}
	l.okCount += o.okCount
	l.bytes += o.bytes
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func newHTTPClient() *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: requestTimeout}
}

// get sends one request and reads the whole reply into buf.
func get(hc *http.Client, url string, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// prime fetches every query once before the clock starts, on one
// connection, and checks each reply in full: the timed clients then
// compare bodies with the verified ones instead of decoding every
// reply on the closed loop's critical path.
func prime(base string, qs []query) *loadStats {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	st := &loadStats{}
	var buf bytes.Buffer
	for i := range qs {
		q := &qs[i]
		status, err := get(hc, base+q.path, &buf)
		if err == nil {
			err = q.verify(status, buf.Bytes())
		}
		st.attempted++
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("GET %s: %w", q.path, err)
			}
			continue
		}
		q.digest, q.verified = maphash.Bytes(digestSeed, buf.Bytes()), true
	}
	return st
}

// client runs one closed loop on its own keep-alive connection: the
// next request goes out only when the previous reply has been read.
func client(base string, qs []query, offset int, record, stop time.Time) *loadStats {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	st := &loadStats{}
	var buf bytes.Buffer
	for i := offset; ; i++ {
		now := time.Now()
		if !now.Before(stop) {
			return st
		}
		q := &qs[i%len(qs)]
		rec := !now.Before(record)
		t0 := time.Now()
		status, err := get(hc, base+q.path, &buf)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err == nil {
			err = q.check(status, buf.Bytes())
		}
		st.attempted++
		if err != nil {
			st.failed++
			ms = float64(requestTimeout.Milliseconds())
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("GET %s: %w", q.path, err)
			}
		}
		if rec {
			st.lat = append(st.lat, ms)
			st.perOp[q.op] = append(st.perOp[q.op], ms)
			st.bytes += int64(buf.Len())
			if err == nil {
				st.okCount++
			}
		}
	}
}

// boot is one regiond child from exec to exit.
type boot struct {
	setup   float64 // exec to first 200 from /v1/health
	rssMB   float64
	cpuUs   float64 // child CPU over the recorded window
	load    *loadStats
	recSecs float64
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// runBoot starts regiond on the workload's topology, waits for its
// first healthy answer, runs the closed loop for d, then stops the child
// with SIGTERM and collects its resource usage.
func runBoot(p params, sh cableShape, qs []query, d time.Duration, traced bool) (*boot, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := sh.spillDir(p)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-listen", addr, "-seed", strconv.FormatInt(p.seed, 10)}
	args = append(args, sh.regiondArgs(dir)...)
	if p.budget > 0 {
		args = append(args, "-budget", strconv.Itoa(p.budget))
	}
	var stderr bytes.Buffer
	cmd := exec.Command(p.regiond, args...)
	cmd.Stdout = &stderr
	cmd.Stderr = &stderr
	cmd.Dir = p.workdir
	// The child dies with the benchmark, whatever kills the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting regiond: %w", err)
	}
	done := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(done)
	}()
	// Every path below stops the child and waits for it.
	stop := func() error {
		select {
		case <-done:
			return waitErr
		default:
		}
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-done:
			return waitErr
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
			return fmt.Errorf("regiond ignored SIGTERM for 15s")
		}
	}
	defer stop()

	b := &boot{}
	base := "http://" + addr
	if err := waitHealthy(base, done, 120*time.Second); err != nil {
		cmd.Process.Kill()
		<-done
		return nil, fmt.Errorf("%w\nregiond output:\n%s", err, tail(stderr.String(), 2000))
	}
	b.setup = time.Since(t0).Seconds()
	primed := prime(base, qs)

	start := time.Now()
	record, end := start.Add(warmup), start.Add(d)
	if d <= warmup {
		record = start
	}
	per := make([]*loadStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = client(base, qs, c*len(qs)/clients, record, end)
		}(c)
	}
	// The child's CPU is sampled where the recorded window opens and
	// after the last reply.
	var cpu0, cpu1 float64
	var cpuErr error
	if traced {
		time.Sleep(time.Until(record))
		cpu0, cpuErr = procCPUSeconds(cmd.Process.Pid)
	}
	wg.Wait()
	b.recSecs = time.Since(record).Seconds()
	if traced && cpuErr == nil {
		cpu1, cpuErr = procCPUSeconds(cmd.Process.Pid)
		b.cpuUs = (cpu1 - cpu0) * 1e6
	}
	if cpuErr != nil {
		return nil, fmt.Errorf("reading regiond CPU time: %w", cpuErr)
	}
	b.load = primed
	for _, st := range per {
		b.load.merge(st)
	}
	if err := stop(); err != nil {
		return nil, fmt.Errorf("regiond exit: %w\nregiond output:\n%s", err, tail(stderr.String(), 2000))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("no rusage for regiond")
	}
	b.rssMB = float64(ru.Maxrss) / 1024
	return b, nil
}

// waitHealthy polls /v1/health until it answers 200.
func waitHealthy(base string, exited <-chan struct{}, limit time.Duration) error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return fmt.Errorf("regiond exited before answering")
		default:
		}
		resp, err := hc.Get(base + "/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("regiond not healthy after %v", limit)
}

// procCPUSeconds reads a process's utime+stime from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad utime/stime")
	}
	const clkTck = 100 // USER_HZ on Linux
	return float64(ut+st) / clkTck, nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}

// percentile returns the nearest-rank q-quantile of sorted samples, and
// false when fewer than ten samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], n-1-rank >= 10
}

// inProcessNs times each query of one op against the in-process
// snapshot and returns the median per-call time.
func inProcessNs(snap *snapshot.Snapshot, qs []query, op int) float64 {
	const reps = 200
	var per []float64
	for i := range qs {
		q := &qs[i]
		if q.op != op {
			continue
		}
		var call func()
		switch op {
		case opAddr:
			call = func() { snap.LookupAddr(q.addr) }
		case opPrefix:
			call = func() { snap.LookupPrefix(q.prefix) }
		case opRegion:
			call = func() { snap.Region(q.name) }
		}
		t := time.Now()
		for r := 0; r < reps; r++ {
			call()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/reps)
	}
	return median(per)
}

// serve is the serve phase: it boots regiond on the workload's
// topology and runs the closed loop against it for d. The expected
// answers come from ref, an in-process snapshot of the same seed; when
// ref failed its own checks (trusted false), no answer can be
// verified, so every request counts as failed.
func serve(p params, sh cableShape, ref *snapshot.Snapshot, trusted bool, d time.Duration, out io.Writer) (map[string]float64, int, int, error) {
	qs, err := buildQueries(ref, p.seed, out)
	if err != nil {
		return nil, 0, 0, err
	}
	misses := 0
	for _, q := range qs {
		if q.status == http.StatusNotFound {
			misses++
		}
	}
	fmt.Fprintf(out, "# %d queries precomputed, %d planted misses\n", len(qs), misses)

	b, err := runBoot(p, sh, qs, d, p.trace)
	if err != nil {
		return nil, 0, 0, err
	}
	all := b.load
	fmt.Fprintf(out, "# regiond: boot %.4fs, peak RSS %.1fMB, %d requests (%d recorded, %d failed)\n",
		b.setup, b.rssMB, all.attempted, len(all.lat), all.failed)
	if all.firstErr != nil {
		fmt.Fprintf(out, "# FAIL %v\n", all.firstErr)
	}
	if !trusted {
		fmt.Fprintf(out, "# FAIL the reference snapshot failed its checks: no response can be verified\n")
		all.failed, all.okCount = all.attempted, 0
	}
	sort.Float64s(all.lat)
	p50, ok50 := percentile(all.lat, 0.50)
	p99, ok99 := percentile(all.lat, 0.99)
	fmt.Fprintf(out, "# latency samples %d: p50 %.4fms p99 %.4fms\n", len(all.lat), p50, p99)
	if !ok50 || !ok99 {
		return nil, 0, 0, fmt.Errorf("only %d latency samples: too few to report p99", len(all.lat))
	}
	m := map[string]float64{
		"http_qps": float64(all.okCount) / b.recSecs,
	}
	if p.trace {
		for _, e := range []struct {
			name string
			op   int
		}{{"regiond.lookup_addr_p50_ms", opAddr}, {"regiond.lookup_prefix_p50_ms", opPrefix}, {"regiond.region_p50_ms", opRegion}} {
			xs := all.perOp[e.op]
			sort.Float64s(xs)
			m[e.name], _ = percentile(xs, 0.50)
		}
		m["regiond.p50_ms"] = p50
		m["regiond.p99_ms"] = p99
		m["regiond.boot_s"] = b.setup
		m["regiond.peak_rss_mb"] = b.rssMB
		m["regiond.resp_bytes"] = float64(all.bytes) / float64(len(all.lat))
		m["regiond.cpu_us_per_req"] = b.cpuUs / float64(len(all.lat))
		m["snapshot.lookup_addr_ns"] = inProcessNs(ref, qs, opAddr)
		m["snapshot.lookup_prefix_ns"] = inProcessNs(ref, qs, opPrefix)
		m["snapshot.region_ns"] = inProcessNs(ref, qs, opRegion)
	}
	return m, all.attempted, all.failed, nil
}
