package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// smokeBudget caps every campaign so each workload runs in seconds;
// smokeSeconds leaves the serve phase enough recorded requests (more
// than 1000) for a p99 with ten samples beyond it.
const (
	smokeBudget  = 3000
	smokeSeconds = 3
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesWorkloads checks BENCHMARK.json against the
// workload table and the metric lists every workload prints: the same
// names, in the same order, with the units printed here.
func TestBenchmarkFileMatchesWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, ours)
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, printed []string) {
		var got []string
		for _, m := range listed {
			got = append(got, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, perfbench prints %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
		if strings.Join(got, ",") != strings.Join(printed, ",") {
			t.Errorf("%s: BENCHMARK.json lists %v, every workload prints %v", kind, got, printed)
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics)
	check("per_layer", bf.PerLayer, layerMetrics)
}

// buildRegiond compiles the server the serve phase starts.
func buildRegiond(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "regiond")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/regiond")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building regiond: %v\n%s", err, out)
	}
	return bin
}

// parseResult returns the result object on the last line of out.
func parseResult(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %q: %v", last, err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOutputFormat runs every workload, untraced and traced, at smoke
// size and checks the printed result: exactly the manifest's metrics,
// each with its BENCHMARK.json unit and a finite value, all outputs
// verified.
func TestOutputFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	regiond := buildRegiond(t)
	listed := map[string]string{}
	bf := loadBenchmarkFile(t)
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		listed[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				p := params{
					workload: w.name, seed: 7, seconds: smokeSeconds, trace: trace,
					regiond: regiond, workdir: t.TempDir(), budget: smokeBudget, source: "test",
				}
				var out bytes.Buffer
				if err := execute(p, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				res := parseResult(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := e2eMetrics
				if trace {
					want = layerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m)
					case got.Unit != listed[m]:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m, got.Unit, listed[m])
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m, got.Value)
					}
				}
				if !trace && res.Metrics["ok_ratio"].Value != 1 {
					t.Errorf("ok_ratio %v", res.Metrics["ok_ratio"].Value)
				}
				if trace {
					if share := res.Metrics["bench.layer_share"].Value; share < 0.95 {
						t.Errorf("layers cover %.3f of the traced study, want >= 0.95", share)
					}
				}
			})
		}
	}
}

// TestWrongPinFailsEveryCampaign shows the digest check can fail: a
// wrong pinned digest fails every campaign and, since the expected
// answers then come from an unverified snapshot, every request too, so
// ok_ratio drops to 0.
func TestWrongPinFailsEveryCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cable study")
	}
	p := params{
		workload: "cable-1x", seed: 7, seconds: smokeSeconds, workdir: t.TempDir(), budget: smokeBudget,
		regiond: buildRegiond(t),
		pins:    map[string]map[string]string{"cable-1x/7": {"comcast": "bad", "charter": "bad"}},
	}
	var out bytes.Buffer
	if err := execute(p, &out); err != nil {
		t.Fatal(err)
	}
	res := parseResult(t, out.String())
	if res.Correct || res.Failed != res.Attempted || res.Metrics["ok_ratio"].Value != 0 {
		t.Fatalf("wrong pin: correct=%v attempted=%d failed=%d ok_ratio=%v",
			res.Correct, res.Attempted, res.Failed, res.Metrics["ok_ratio"].Value)
	}
}

// TestPinnedDigestsFromResidentArchive re-derives the pinned digests
// from resident-archive studies, so cable-3x-spill's pin is the
// resident 3x output, not whatever the spilled path produced.
func TestPinnedDigestsFromResidentArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs paper-size and 3x studies")
	}
	for _, c := range []struct {
		key   string
		shape cableShape
	}{
		{"cable-1x/7", cable1x},
		{"cable-3x-spill/7", cableShape{regions: cable3xSpill.regions}},
	} {
		st := core.NewCableStudy(7, c.shape.options(params{}, "")...)
		for _, isp := range core.CableISPs {
			d, err := reportDigest(st.Result(isp), isp)
			if err != nil {
				t.Fatal(err)
			}
			if want := pinnedDigests[c.key][isp]; d != want {
				t.Errorf("%s %s: resident digest %s, pinned %q", c.key, isp, d, want)
			}
		}
	}
}
