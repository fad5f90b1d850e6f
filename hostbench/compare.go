package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"origin2000/internal/perf"
)

// record is one invocation's full result, one JSON line in a -json file.
// A set of runs is a file of records; -compare reads two sets.
type record struct {
	Workload     string                  `json:"workload"`
	Seed         int64                   `json:"seed"`
	Trace        int                     `json:"trace"`
	Host         hostInfo                `json:"host"`
	Correct      bool                    `json:"correct"`
	Attempted    int                     `json:"attempted"`
	Failed       int                     `json:"failed"`
	Fingerprints map[string]string       `json:"fingerprints"`
	Metrics      map[string]recordMetric `json:"metrics"`
}

type recordMetric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Dist  *summary `json:"dist,omitempty"`
}

func appendRecord(path string, res *result) error {
	rec := record{
		Workload: res.w.Name, Seed: res.Seed, Host: res.Host,
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Fingerprints: map[string]string{}, Metrics: map[string]recordMetric{},
	}
	if res.Traced {
		rec.Trace = 1
	}
	for i, fp := range res.Fingerprints {
		rec.Fingerprints[res.w.Runs[i].label()] = fp
	}
	for _, m := range res.Metrics {
		rm := recordMetric{Value: m.Value, Unit: m.Unit}
		if m.Dist.N > 0 {
			d := m.Dist
			rm.Dist = &d
		}
		rec.Metrics[m.Name] = rm
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Verdicts of -compare, per workload and end-to-end metric.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares one metric's per-run values, parent against change.
// The rules:
//   - when either side's quartile spread exceeds the bound, the result is
//     unresolved, unless every change run reads better than every parent run;
//   - a gain needs the change to win at least nine tenths of the pairs
//     (runs matched in order, ties counting for neither) and the medians
//     to differ by more than the parent's quartile distance;
//   - a change median worse than the parent's by more than the bound is a
//     regression;
//   - anything else is unchanged.
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	p, c := summarize(parent), summarize(change)
	if len(parent) == 0 || len(change) == 0 || p.Median == 0 {
		return unresolved
	}
	isBetter := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	if math.Max(p.spread(), c.spread()) > bound {
		for _, x := range change {
			for _, y := range parent {
				if !isBetter(x, y) {
					return unresolved
				}
			}
		}
		return better
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if isBetter(change[i], parent[i]) {
			wins++
		}
	}
	if 10*wins >= 9*pairs && isBetter(c.Median, p.Median) && math.Abs(c.Median-p.Median) > p.Q3-p.Q1 {
		return better
	}
	if worsening(p.Median, c.Median, lowerBetter) > bound {
		return worse
	}
	return unchanged
}

// worsening is the change's relative move from the parent's median,
// positive when it is worse.
func worsening(parent, change float64, lowerBetter bool) float64 {
	d := (change - parent) / parent
	if !lowerBetter {
		d = -d
	}
	return d
}

// compareRow is one line of a -compare report.
type compareRow struct {
	workload, metric string
	parent, change   summary
	worsening        float64
	verdict          string
}

// compareSets gives a verdict for every end-to-end metric of every
// workload present in both sets of untraced records, plus a fail-rate row
// that is worse whenever the change failed a larger share of its runs.
func compareSets(spec benchSpec, parent, change []record) []compareRow {
	values := func(recs []record, wl, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && r.Trace == 0 {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	failRate := func(recs []record, wl string) float64 {
		var failed, attempted int64
		for _, r := range recs {
			if r.Workload == wl {
				failed += int64(r.Failed)
				attempted += int64(r.Attempted)
			}
		}
		return ratio(failed, attempted)
	}
	has := func(recs []record, wl string) bool {
		for _, r := range recs {
			if r.Workload == wl {
				return true
			}
		}
		return false
	}
	var rows []compareRow
	for _, w := range spec.Workloads {
		if !has(parent, w.Name) || !has(change, w.Name) {
			continue
		}
		for _, m := range spec.EndToEnd {
			p, c := values(parent, w.Name, m.Name), values(change, w.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			lower := m.Better == "lower"
			ps, cs := summarize(p), summarize(c)
			rows = append(rows, compareRow{
				workload: w.Name, metric: m.Name, parent: ps, change: cs,
				worsening: worsening(ps.Median, cs.Median, lower),
				verdict:   verdict(p, c, lower, m.Bound),
			})
		}
		pf, cf := failRate(parent, w.Name), failRate(change, w.Name)
		v := unchanged
		switch {
		case cf > pf:
			v = worse
		case cf < pf:
			v = better
		}
		rows = append(rows, compareRow{
			workload: w.Name, metric: "fail_rate",
			parent: summary{Median: pf}, change: summary{Median: cf},
			worsening: cf - pf, verdict: v,
		})
	}
	return rows
}

// runCompare prints the comparison of two record files and reports
// whether any verdict is worse.
func runCompare(w io.Writer, spec benchSpec, parentPath, changePath string) (bool, error) {
	parent, err := loadRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return false, err
	}
	rows := compareSets(spec, parent, change)
	if len(rows) == 0 {
		return false, fmt.Errorf("no workload appears in both %s and %s", parentPath, changePath)
	}
	dist := func(s summary) string {
		if s.N == 0 {
			return fmt.Sprintf("%.6g", s.Median)
		}
		return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", s.Median, s.Q1, s.Q3, s.N)
	}
	table := [][]string{{"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse by", "spread p/c", "verdict"}}
	anyWorse := false
	for _, r := range rows {
		table = append(table, []string{
			r.workload, r.metric, dist(r.parent), dist(r.change),
			fmt.Sprintf("%+.1f%%", 100*r.worsening),
			fmt.Sprintf("%.1f%%/%.1f%%", 100*r.parent.spread(), 100*r.change.spread()),
			r.verdict,
		})
		anyWorse = anyWorse || r.verdict == worse
	}
	fmt.Fprint(w, perf.Table(table))
	return anyWorse, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
