package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"kanon/internal/algo"
	"kanon/internal/dataset"
	"kanon/internal/metric"
	"kanon/internal/relation"
	"kanon/internal/stream"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program
// in step: the same workloads, metrics and units, and the service
// workload's recorded SLO limit and ladder.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	var why string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Name == "service_jobs" {
			why = w.Why
		}
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end %v, program prints %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer %v, program prints %v", layer, perLayer)
	}
	rates := []string{fmt.Sprint(svcNominalRate)}
	for _, r := range svcLadder {
		rates = append(rates, fmt.Sprint(r))
	}
	for _, s := range []string{fmt.Sprintf("p95<=%gms", svcP95LimitMS), "ladder " + strings.Join(rates, ",")} {
		if !strings.Contains(why, s) {
			t.Errorf("service_jobs why %q does not record %q", why, s)
		}
	}
}

// TestTinyRunsPrintEveryMetric runs every workload at tiny scale,
// untraced and traced, and checks the result line: correct, nothing
// failed, and every metric of the mode printed with its unit.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds kanon-router and runs every workload")
	}
	dir := t.TempDir()
	router := filepath.Join(dir, "kanon-router")
	if out, err := exec.Command("go", "build", "-o", router, "kanon/cmd/kanon-router").CombinedOutput(); err != nil {
		t.Fatalf("building kanon-router: %v\n%s", err, out)
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := run([]string{"-workload", name, "-seed", "3", "-seconds", "1", "-tiny",
					"-trace", trace, "-router-bin", router, "-work-dir", dir}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                 `json:"correct"`
					Attempted int                  `json:"attempted"`
					Failed    int                  `json:"failed"`
					Metrics   map[string]metricOut `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestWrappersKeepReleasesByteIdentical guards the traced pass: the
// decomposed pipeline over the counting kernel, and the stream Algo
// wrapper built on it, must release exactly what the untraced solvers
// release.
func TestWrappersKeepReleasesByteIdentical(t *testing.T) {
	rec := newRecorder()
	n := metric.AutoBitsetThreshold
	tab := dataset.Planted(rand.New(rand.NewSource(5)), n, 8, 6, 3, 1)
	want, err := algo.GreedyBall(tab, 3, &algo.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps := &pipeStats{}
	got, err := ballPipeline(tab, 3, 2, rec, 0, ps, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableCSV(got.Anonymized), tableCSV(want.Anonymized)) || got.Cost != want.Cost {
		t.Errorf("ball pipeline release differs from algo.GreedyBall (cost %d vs %d)", got.Cost, want.Cost)
	}
	if len(ps.kernels) != 1 || ps.kernels[0].rowCalls.Load() == 0 {
		t.Errorf("counting kernel was not used on the bitset path")
	}

	census := dataset.Census(rand.New(rand.NewSource(6)), 1536, 8)
	opts := func(fn func(*relation.Table, int) (*algo.Result, error)) *stream.Options {
		return &stream.Options{BlockRows: 512, Refine: true, Workers: 2, Algo: fn}
	}
	plain, err := stream.Anonymize(census, 3, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := stream.Anonymize(census, 3, opts(func(sub *relation.Table, k int) (*algo.Result, error) {
		return ballPipeline(sub, k, 0, rec, 0, &pipeStats{}, false)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableCSV(wrapped.Anonymized), tableCSV(plain.Anonymized)) || wrapped.Cost != plain.Cost {
		t.Errorf("stream with the Algo wrapper differs from the default per-block algorithm")
	}
}
