// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time, checks every output it produced, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer split) as one
// JSON object on the last line of standard output.
//
//	perfbench -workload cable-1x -seed 7 -seconds 40 -trace 0 -regiond BIN -workdir DIR
//
// run.py builds this binary and regiond from the checkout and calls it;
// README.md describes the workloads, metrics and predictions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// units names every metric the benchmark can print, with its unit.
// BENCHMARK.json must list the same units; the self-test checks it.
var units = map[string]string{
	// End to end.
	"setup_s":     "s",
	"study_s":     "s",
	"cpu_s":       "s",
	"alloc_mb":    "MB",
	"peak_rss_mb": "MB",
	"ok_ratio":    "ratio",
	"http_qps":    "1/s",

	// Per layer.
	"topogen.build_s":              "s",
	"topogen.routers":              "count",
	"comap.collect_s":              "s",
	"comap.collect_alloc_mb":       "MB",
	"netsim.probes_sent":           "count",
	"netsim.probes_per_s":          "1/s",
	"traceroute.traces":            "count",
	"traceroute.kept_ratio":        "ratio",
	"traceroute.hop_yield":         "ratio",
	"traceroute.spill_mb":          "MB",
	"traceroute.replay_s":          "s",
	"alias.resolve_s":              "s",
	"alias.targets":                "count",
	"alias.groups":                 "count",
	"comap.mapping_s":              "s",
	"comap.mapping_alloc_mb":       "MB",
	"comap.graph_s":                "s",
	"comap.graph_alloc_mb":         "MB",
	"comap.report_s":               "s",
	"snapshot.build_s":             "s",
	"snapshot.cos":                 "count",
	"snapshot.addrs":               "count",
	"runtime.gc_cycles":            "count",
	"bench.trace_overhead_s":       "s",
	"bench.layer_share":            "ratio",
	"regiond.p50_ms":               "ms",
	"regiond.p99_ms":               "ms",
	"regiond.boot_s":               "s",
	"regiond.peak_rss_mb":          "MB",
	"regiond.lookup_addr_p50_ms":   "ms",
	"regiond.lookup_prefix_p50_ms": "ms",
	"regiond.region_p50_ms":        "ms",
	"regiond.resp_bytes":           "bytes",
	"regiond.cpu_us_per_req":       "us",
	"snapshot.lookup_addr_ns":      "ns",
	"snapshot.lookup_prefix_ns":    "ns",
	"snapshot.region_ns":           "ns",
}

// params is one invocation's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// regiond is the server binary the serve phase starts; workdir
	// holds spill directories and nothing else.
	regiond string
	workdir string
	// budget caps each cable campaign's traceroutes (core.WithProbeBudget)
	// so the self-test can run every workload in seconds; the command
	// line always measures the unbudgeted, paper-size configuration.
	budget int
	// pins maps "workload/seed" to the per-operator report digests a
	// run must reproduce; nil selects the built-in pinnedDigests, which
	// hold for the unbudgeted configuration only.
	pins map[string]map[string]string
	// source identifies the measured code: the commit when the checkout
	// knows it, else a digest of its source files.
	source string
}

// workload is one benchmark input set (BENCHMARK.json says why each
// exists). Both run the same procedure on their own topology: the
// cable study in process, then regiond serving it over HTTP. So every
// workload prints every metric: e2eMetrics untraced, layerMetrics
// traced.
type workload struct {
	name  string
	shape cableShape
}

var workloads = []workload{
	{name: "cable-1x", shape: cable1x},
	{name: "cable-3x-spill", shape: cable3xSpill},
}

var e2eMetrics = []string{
	"setup_s", "study_s", "cpu_s", "alloc_mb", "peak_rss_mb", "ok_ratio",
	"http_qps",
}

var layerMetrics = []string{
	"topogen.build_s", "topogen.routers",
	"comap.collect_s", "comap.collect_alloc_mb",
	"netsim.probes_sent", "netsim.probes_per_s",
	"traceroute.traces", "traceroute.kept_ratio", "traceroute.hop_yield",
	"traceroute.spill_mb", "traceroute.replay_s",
	"alias.resolve_s", "alias.targets", "alias.groups",
	"comap.mapping_s", "comap.mapping_alloc_mb", "comap.graph_s", "comap.graph_alloc_mb",
	"comap.report_s",
	"snapshot.build_s", "snapshot.cos", "snapshot.addrs",
	"runtime.gc_cycles",
	"bench.trace_overhead_s", "bench.layer_share",
	"regiond.boot_s", "regiond.peak_rss_mb", "regiond.p50_ms", "regiond.p99_ms",
	"regiond.lookup_addr_p50_ms", "regiond.lookup_prefix_p50_ms", "regiond.region_p50_ms",
	"regiond.resp_bytes", "regiond.cpu_us_per_req",
	"snapshot.lookup_addr_ns", "snapshot.lookup_prefix_ns", "snapshot.region_ns",
}

// report is what a workload measured: counts of verified operations
// and its metrics. execute prints the ones the invocation asked for.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// execute runs one invocation and writes the environment header, the
// workload's diagnostics and the result line to out. An error means no
// result line was printed.
func execute(p params, out io.Writer) error {
	w, ok := findWorkload(p.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (known: %s)", p.workload, strings.Join(names, ", "))
	}
	if p.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if p.workdir == "" {
		return fmt.Errorf("-workdir is required")
	}
	if err := os.MkdirAll(p.workdir, 0o755); err != nil {
		return err
	}
	writeHeader(out, p)
	if p.regiond == "" {
		return fmt.Errorf("-regiond is required")
	}
	rep, err := runWorkload(p, w.shape, out)
	if err != nil {
		return err
	}
	want := e2eMetrics
	if p.trace {
		want = layerMetrics
	}
	line := resultLine{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, name := range want {
		v, ok := rep.metrics[name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is not finite (%v)", w.name, name, v)
		}
		line.Metrics[name] = metricOut{Value: v, Unit: units[name]}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", js)
	return err
}

// writeHeader prints the environment every number depends on.
func writeHeader(out io.Writer, p params) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", p.workload, p.seed, p.seconds, p.trace)
	fmt.Fprintf(out, "# env GOMAXPROCS=%d nproc=%d go=%s os=%s/%s cpu=%q\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Fprintf(out, "# source %s\n", p.source)
	fmt.Fprintf(out, "# serve phase: traffic over loopback (127.0.0.1), closed loop, %d client(s)\n", clients)
	if p.budget > 0 {
		fmt.Fprintf(out, "# probe budget %d traceroutes per campaign (smoke size, not comparable)\n", p.budget)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median returns the middle of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload to run: cable-1x or cable-3x-spill")
	flag.Int64Var(&p.seed, "seed", 7, "workload seed")
	flag.Float64Var(&p.seconds, "seconds", 40, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&p.regiond, "regiond", "", "regiond binary the serve phase starts")
	flag.StringVar(&p.workdir, "workdir", "", "scratch directory for spill logs")
	flag.StringVar(&p.source, "source", "unknown", "identifier of the measured source tree")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	p.trace = trace == 1
	start := time.Now()
	if err := execute(p, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s done in %v\n", p.workload, time.Since(start).Round(time.Millisecond))
}
