// Command hostbench is the repository benchmark. It runs one named
// reproduction workload of the simulator for a host-time budget, checks
// that every simulated result is correct, and prints its end-to-end
// metrics or, traced, its per-layer host-time ledger, each by name and
// unit. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; BENCHMARK.json at the
// repository root lists the metrics and their bounds.
//
// Usage, from the repository root (run.sh builds this command first):
//
//	bash hostbench/run.sh --workload fig2-128 --seed 42 --seconds 20 --trace 0
//	bash hostbench/run.sh --workload fig2-128 --seed 42 --seconds 20 --trace 1 --spans out/
//	bash hostbench/run.sh --workload fig2-128 --seed 42 --json set.jsonl
//	bash hostbench/run.sh --compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and the noise study.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"origin2000/internal/perf"
)

// benchDiv divides the paper's problem sizes and cache; the benchmark's
// pass times are sized for it.
const benchDiv = 16

func main() {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 42, "input seed; 7 is held out for checking claims")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0 measures end to end; 1 runs the traced per-layer measurement")
	jsonOut := flag.String("json", "", "append the run's full record as one JSON line to this file")
	spans := flag.String("spans", "", "with -trace 1, write the traced passes' spans as Perfetto JSON into this directory")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "benchmark description with the metric lists and bounds")
	compare := flag.Bool("compare", false, "compare two -json record files: -compare PARENT CHANGE")
	flag.Parse()

	spec, err := loadSpec(*benchFile)
	if err != nil {
		fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(errors.New("-compare takes two record files, parent first"))
		}
		worse, err := runCompare(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", ")))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", *traced))
	}
	res, err := measure(options{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, div: benchDiv, spans: *spans})
	if err != nil {
		fail(err)
	}
	line, err := resultLine(res, spec)
	if err != nil {
		fail(err)
	}
	printResult(os.Stdout, res)
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, res); err != nil {
			fail(err)
		}
	}
	fmt.Println(line)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hostbench:", err)
	os.Exit(1)
}

// benchSpec is the part of BENCHMARK.json this command reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// resultLine renders the result's final JSON line: the end-to-end
// metrics of BENCHMARK.json for an untraced run, its per-layer metrics
// for a traced one. A listed metric the run did not produce, or produced
// in another unit, is an error.
func resultLine(res *result, spec benchSpec) (string, error) {
	list := spec.EndToEnd
	if res.Traced {
		list = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]metric{}
	for _, m := range res.Metrics {
		byName[m.Name] = m
	}
	out := map[string]value{}
	for _, ms := range list {
		m, ok := byName[ms.Name]
		if !ok {
			return "", fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", ms.Name)
		}
		if m.Unit != ms.Unit {
			return "", fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", ms.Name, m.Unit, ms.Unit)
		}
		out[ms.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, out})
	return string(data), err
}

// printResult writes the human-readable report.
func printResult(w io.Writer, res *result) {
	mode := "end to end"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "hostbench %s seed %d, %s\n", res.w.Name, res.Seed, mode)
	h := res.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, host.calib_ns %.1f\n",
		h.CPUModel, h.NumCPU, h.GoMaxProcs, h.GoVersion, h.CalibNS)
	for i, fp := range res.Fingerprints {
		fmt.Fprintf(w, "fingerprint %s %s\n", res.w.Runs[i].label(), fp)
	}
	rows := [][]string{{"metric", "value", "unit", "q1", "q3", "n", "tail"}}
	for _, m := range res.Metrics {
		row := []string{m.Name, fmt.Sprintf("%.6g", m.Value), m.Unit, "", "", "", ""}
		if d := m.Dist; d.N > 0 {
			row[3], row[4], row[5] = fmt.Sprintf("%.6g", d.Q1), fmt.Sprintf("%.6g", d.Q3), fmt.Sprint(d.N)
			if d.TailP > 0 {
				row[6] = fmt.Sprintf("p%d %.6g", d.TailP, d.Tail)
			}
		}
		rows = append(rows, row)
	}
	fmt.Fprint(w, perf.Table(rows))
	if l := res.ledger; l != nil {
		printLedger(w, l)
	}
}

// printLedger writes the per-layer host-time ledger of a traced run.
func printLedger(w io.Writer, l *ledger) {
	pass := l.passS()
	fmt.Fprintf(w, "ledger: %d traced passes, %.4f s each\n", l.passes, pass)
	rows := [][]string{{"layer", "s/pass", "share"}}
	sum := 0.0
	for _, b := range append(ledgerBuckets, l.extraBuckets()...) {
		v := l.perPass(b)
		sum += v
		rows = append(rows, []string{b, fmt.Sprintf("%.4f", v), fmt.Sprintf("%.1f%%", 100*v/pass)})
	}
	r := l.residual()
	rows = append(rows,
		[]string{"ledger.residual_s", fmt.Sprintf("%.4f", r), fmt.Sprintf("%.1f%%", 100*r/pass)},
		[]string{"total = traced pass_s", fmt.Sprintf("%.4f", sum+r), "100.0%"})
	fmt.Fprint(w, perf.Table(rows))
	spans := [][]string{{"span label", "cpu s/pass"}}
	for _, name := range sortedKeys(l.bySpan) {
		spans = append(spans, []string{name, fmt.Sprintf("%.4f", l.bySpan[name]/float64(l.passes))})
	}
	fmt.Fprint(w, perf.Table(spans))
}
