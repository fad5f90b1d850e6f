package experiments

import (
	"fmt"
	"io"

	"origin2000/internal/core"
	"origin2000/internal/mempolicy"
	"origin2000/internal/perf"
	"origin2000/internal/sim"
	"origin2000/internal/workload"
)

// LatencyProbe measures local, remote-clean and remote-dirty read miss
// latencies on a 64-processor machine built with the given latency preset,
// averaging the remote cases over all other nodes (Table 1 methodology).
func LatencyProbe(lat core.Latencies) (local, clean, dirty sim.Time, err error) {
	measure := func(home, owner int) (sim.Time, error) {
		cfg := core.Origin2000(64)
		cfg.Lat = lat
		m := core.New(cfg)
		arr := m.Alloc("probe", 1024, 8)
		arr.PlaceAtNode(home)
		var stall sim.Time
		runErr := m.Run(func(p *core.Proc) {
			if p.ID() == owner && owner != 0 {
				p.Write(arr.Addr(0))
			}
			if p.ID() == 0 {
				p.Compute(100 * sim.Microsecond)
				before := p.Now()
				p.Read(arr.Addr(0))
				stall = p.Now() - before
			}
		})
		return stall, runErr
	}
	if local, err = measure(0, 0); err != nil {
		return
	}
	var sum sim.Time
	n := 0
	for home := 1; home < 32; home += 2 {
		var s sim.Time
		if s, err = measure(home, 0); err != nil {
			return
		}
		sum += s
		n++
	}
	clean = sum / sim.Time(n)
	sum, n = 0, 0
	for home := 1; home < 8; home++ {
		owner := (home + 8) % 16 * 2 // a processor on a third node
		var s sim.Time
		if s, err = measure(home, owner); err != nil {
			return
		}
		sum += s
		n++
	}
	dirty = sum / sim.Time(n)
	return
}

// table1Rows are Table 1's rows: each machine's latency preset (a
// scenario.LatencyPresets name), its display label, and the paper's
// measured local, remote-clean and remote-dirty latencies in ns.
var table1Rows = []struct {
	preset, label string
	paper         [3]int
}{
	{"origin2000", "Origin2000", [3]int{338, 656, 892}},
	{"exemplar-x", "Convex Exemplar X", [3]int{450, 1315, 1955}},
	{"numaliine", "Data General NUMALiiNE", [3]int{240, 2400, 3400}},
	{"hal-s1", "Hal S1", [3]int{240, 1065, 1365}},
	{"numa-q", "Sequent NUMAQ", [3]int{240, 2500, 0}},
}

// Table1 regenerates the latency comparison across the five machines.
func Table1(w io.Writer) error {
	rows := [][]string{{
		"Machine", "Local(ns)", "RemoteClean(ns)", "RemoteDirty(ns)",
		"Clean ratio", "Dirty ratio", "paper(L/C/D)",
	}}
	for _, mach := range table1Rows {
		local, clean, dirty, err := LatencyProbe(core.Table1Latencies(mach.preset))
		if err != nil {
			return err
		}
		pp := mach.paper
		rows = append(rows, []string{
			mach.label,
			fmt.Sprintf("%.0f", local.Nanoseconds()),
			fmt.Sprintf("%.0f", clean.Nanoseconds()),
			fmt.Sprintf("%.0f", dirty.Nanoseconds()),
			fmt.Sprintf("%.1f:1", float64(clean)/float64(local)),
			fmt.Sprintf("%.1f:1", float64(dirty)/float64(local)),
			fmt.Sprintf("%d/%d/%d", pp[0], pp[1], pp[2]),
		})
	}
	fprintf(w, "Table 1: read-miss latencies by machine preset (measured on the simulator)\n")
	fprintf(w, "%s\n", perf.Table(rows))
	return nil
}

// paperTable2 holds the paper's sequential times in ms (interpreting the
// paper's column as microseconds, i.e. the printed values / 1000).
var paperTable2 = map[string]float64{
	"Barnes":         7556.556,
	"Infer":          640.000,
	"FFT":            2631.816,
	"Ocean":          28488.206,
	"Protein":        1713.000,
	"Radix":          4554.729,
	"Raytrace":       38186.372,
	"Shear-Warp":     8905.678,
	"Volrend":        934.163,
	"Water-Nsquared": 69031.748,
	"Water-Spatial":  7786.852,
}

// Table2 regenerates the basic problem sizes and sequential times.
func Table2(se *Session, w io.Writer) error {
	rows := [][]string{{"Application", "Basic size (paper)", "Run size", "Sequential (ms)", "Paper (ms)"}}
	for _, app := range Apps() {
		seq, err := se.Sequential(app, app.BasicSize())
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			app.Name(),
			fmt.Sprintf("%d %s", app.BasicSize(), app.Unit()),
			fmt.Sprintf("%d", se.Scale.BasicSize(app)),
			fmt.Sprintf("%.1f", seq.Milliseconds()),
			fmt.Sprintf("%.0f", paperTable2[app.Name()]),
		})
	}
	fprintf(w, "Table 2: basic problem sizes and sequential times (scale 1/%d, cache 1/%d; steps reduced)\n",
		se.Scale.Div, se.Scale.CacheDiv)
	fprintf(w, "%s\n", perf.Table(rows))
	return nil
}

// paperTable3 holds the paper's Table 3 speedups at 64 processors.
var paperTable3 = map[string][3]int{ // manual, round robin, rr+migration
	"FFT":   {55, 26, 25},
	"Radix": {38, 24, 25},
	"Ocean": {64, 34, 33},
}

// table3Sizes maps apps to the paper's Table 3 (large) problem sizes.
var table3Sizes = map[string]int{
	"FFT":   1 << 24,
	"Radix": 128 << 20,
	"Ocean": 2050,
}

// Table3 regenerates the data-placement comparison at 64 processors:
// manual placement, round-robin, and round-robin with dynamic migration.
func Table3(se *Session, w io.Writer) error {
	procs := 64
	if len(se.Scale.Procs) > 0 {
		procs = se.Scale.Procs[len(se.Scale.Procs)-1]
	}
	rows := [][]string{{"Application", "Size", "Manual", "RoundRobin", "RR+Migration", "paper(M/RR/RR+M)"}}
	for _, name := range []string{"FFT", "Radix", "Ocean"} {
		app := AppByName(name)
		params := se.Scale.SweepParams(app, table3Sizes[name], "")
		seq, err := se.sequentialAt(app, params.Size)
		if err != nil {
			return err
		}
		speedups := make([]float64, 3)
		for i, mode := range []string{"manual", "rr", "rrmig"} {
			cfg := se.Scale.Machine(procs)
			switch mode {
			case "rr":
				cfg.IgnorePlacement = true
				cfg.Placement = mempolicy.RoundRobin
			case "rrmig":
				cfg.IgnorePlacement = true
				cfg.Placement = mempolicy.RoundRobin
				cfg.MigrationThreshold = 64
			}
			r, err := se.Scale.RunConfig(app, cfg, params)
			if err != nil {
				return err
			}
			speedups[i] = perf.Speedup(seq, r.Elapsed)
		}
		pp := paperTable3[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", params.Size),
			fmt.Sprintf("%.1f", speedups[0]),
			fmt.Sprintf("%.1f", speedups[1]),
			fmt.Sprintf("%.1f", speedups[2]),
			fmt.Sprintf("%d/%d/%d", pp[0], pp[1], pp[2]),
		})
	}
	fprintf(w, "Table 3: speedups at %d processors under different data distributions\n", procs)
	fprintf(w, "%s\n", perf.Table(rows))
	return nil
}

// sweepPoint measures parallel efficiency at one (app, size, procs, variant)
// using the ratio-preserving sweep scaling.
func (se *Session) sweepPoint(app workload.App, procs, paperSize int, variant string) (float64, error) {
	eff, _, err := se.SweepEfficiency(app, procs, paperSize, variant)
	return eff, err
}
