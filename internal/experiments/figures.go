package experiments

import (
	"fmt"
	"io"

	"origin2000/internal/perf"
	"origin2000/internal/workload"
)

// figure2Procs are the processor counts of Figure 2.
var figure2Procs = []int{32, 64, 96, 128}

// Figure2 regenerates the speedups for the basic problem sizes.
func Figure2(se *Session, w io.Writer) error {
	procs := se.Scale.procCounts(figure2Procs)
	header := []string{"Application"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("P=%d", p))
	}
	rows := [][]string{header}
	for _, app := range Apps() {
		row := []string{app.Name()}
		seq, err := se.Sequential(app, app.BasicSize())
		if err != nil {
			return err
		}
		for _, p := range procs {
			if p > app.MaxProcs() {
				row = append(row, "-")
				continue
			}
			r, err := se.Scale.Run(app, p, se.Scale.Params(app, app.BasicSize(), ""))
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.1f", perf.Speedup(seq, r.Elapsed)))
		}
		rows = append(rows, row)
	}
	fprintf(w, "Figure 2: speedups for basic problem sizes (60%% efficiency = speedup 0.6*P)\n")
	fprintf(w, "%s\n", perf.Table(rows))
	return nil
}

// Figure3 regenerates the average 128-processor execution-time breakdown.
func Figure3(se *Session, w io.Writer) error {
	procs := 128
	if len(se.Scale.Procs) > 0 {
		procs = se.Scale.Procs[len(se.Scale.Procs)-1]
	}
	rows := [][]string{{"Application", "Busy%", "Memory%", "Sync%", ""}}
	for _, app := range Apps() {
		if app.MaxProcs() < procs {
			continue // Infer and Protein have no 128-processor results
		}
		r, err := se.Scale.Run(app, procs, se.Scale.Params(app, app.BasicSize(), ""))
		if err != nil {
			return err
		}
		avg := r.Result.Average()
		busy, mem, sync := avg.Fractions()
		rows = append(rows, []string{
			app.Name(),
			fmt.Sprintf("%5.1f", 100*busy),
			fmt.Sprintf("%5.1f", 100*mem),
			fmt.Sprintf("%5.1f", 100*sync),
			perf.BreakdownBar(avg, 40),
		})
	}
	fprintf(w, "Figure 3: average execution-time breakdown, %d processors, basic sizes\n", procs)
	fprintf(w, "%s\n", perf.Table(rows))
	return nil
}

// figure4Procs are the processor counts of Figures 4 and 9.
var figure4Procs = []int{32, 64, 128}

// Figure4 regenerates parallel efficiency versus problem size per app.
func Figure4(se *Session, w io.Writer) error {
	fprintf(w, "Figure 4: impact of problem size on parallel efficiency\n\n")
	for _, app := range Apps() {
		series, err := Figure4Panel(se, app)
		if err != nil {
			return err
		}
		fprintf(w, "%s (x = %s)\n%s\n", app.Name(), app.Unit(),
			perf.Curves(series, 60, 12, 1.2))
	}
	return nil
}

// Figure4Panel measures app's panel of Figure 4: one curve per processor
// count the app runs at.
func Figure4Panel(se *Session, app workload.App) ([]perf.Series, error) {
	markers := []byte{'a', 'b', 'c', 'd'}
	var series []perf.Series
	for pi, p := range se.Scale.procCounts(figure4Procs) {
		if p > app.MaxProcs() {
			continue
		}
		s, err := se.SweepSeries(app, p, "")
		if err != nil {
			return nil, err
		}
		s.Label, s.Marker = fmt.Sprintf("%d procs", p), markers[pi%len(markers)]
		series = append(series, s)
	}
	return series, nil
}

// breakdownFigure holds the setup of one per-processor breakdown figure.
type breakdownFigure struct {
	id        string
	app       string
	smallSize int
	largeSize int
}

// figures5to8 are the paper's per-processor breakdown case studies.
var figures5to8 = []breakdownFigure{
	{"Figure 5", "Water-Spatial", 4096, 32768},
	{"Figure 6", "FFT", 1 << 20, 1 << 24},
	{"Figure 7", "Shear-Warp", 256, 384},
	{"Figure 8", "Raytrace", 128, 512},
}

// Figures5to8 regenerates the per-processor breakdown continua for
// Water-Spatial, FFT, Shear-Warp and Raytrace at small and large sizes.
func Figures5to8(se *Session, w io.Writer) error {
	procs := 128
	if len(se.Scale.Procs) > 0 {
		procs = se.Scale.Procs[len(se.Scale.Procs)-1]
	}
	for _, fig := range figures5to8 {
		app := AppByName(fig.app)
		for _, size := range []int{fig.smallSize, fig.largeSize} {
			params := se.Scale.SweepParams(app, size, "")
			r, err := se.Scale.Run(app, procs, params)
			if err != nil {
				return err
			}
			// A uniprocessor breakdown accompanies each figure in the
			// paper, to reveal capacity effects.
			uni, err := se.Scale.Run(app, 1, params)
			if err != nil {
				return err
			}
			ub := uni.Result.Average()
			ubusy, umem, _ := ub.Fractions()
			fprintf(w, "%s: %s, size %d, %d processors (uniprocessor: busy %.0f%%, memory %.0f%%)\n",
				fig.id, fig.app, params.Size, procs, 100*ubusy, 100*umem)
			fprintf(w, "%s\n", perf.Continuum(r.Result.PerProc, 64, 12))
		}
	}
	return nil
}

// restructured lists the Figure 9 original-versus-restructured pairs.
var restructured = []struct {
	app     string
	variant string
}{
	{"Barnes", "merge"},
	{"Barnes", "spatial"},
	{"Shear-Warp", "new"},
	{"Water-Nsquared", "interchange"},
	{"Infer", "static"},
	{"Radix", "sample"},
}

// Figure9 regenerates the restructured-versus-original efficiency sweeps.
func Figure9(se *Session, w io.Writer) error {
	procs := se.Scale.procCounts(figure4Procs)
	top := procs[len(procs)-1]
	fprintf(w, "Figure 9: impact of application restructuring on parallel efficiency\n\n")
	for _, rc := range restructured {
		app := AppByName(rc.app)
		p := top
		if p > app.MaxProcs() {
			p = app.MaxProcs()
		}
		orig, err := se.SweepSeries(app, p, "")
		if err != nil {
			return err
		}
		rest, err := se.SweepSeries(app, p, rc.variant)
		if err != nil {
			return err
		}
		orig.Label, orig.Marker = "original", 'o'
		rest.Label, rest.Marker = rc.variant, '+'
		fprintf(w, "%s vs %q at %d processors (x = %s)\n%s\n",
			rc.app, rc.variant, p, app.Unit(),
			perf.Curves([]perf.Series{orig, rest}, 60, 12, 1.2))
	}
	return nil
}

// Figure10 regenerates the normalized breakdown comparison of the original
// and restructured Barnes-Hut and Water-Nsquared at the top machine size.
func Figure10(se *Session, w io.Writer) error {
	procs := 128
	if len(se.Scale.Procs) > 0 {
		procs = se.Scale.Procs[len(se.Scale.Procs)-1]
	}
	cases := []struct {
		label   string
		app     string
		size    int
		variant string
	}{
		{"(a) Barnes, LockTree", "Barnes", 512 << 10, ""},
		{"(b) Barnes, MergeTree", "Barnes", 512 << 10, "merge"},
		{"(c) Barnes, Spatial", "Barnes", 512 << 10, "spatial"},
		{"(d) Water-Nsq, original", "Water-Nsquared", 8192, ""},
		{"(e) Water-Nsq, interchanged", "Water-Nsquared", 8192, "interchange"},
	}
	var baseline float64
	rows := [][]string{{"Version", "Busy%", "Memory%", "Sync%", "Total vs original", ""}}
	for i, c := range cases {
		app := AppByName(c.app)
		r, err := se.Scale.Run(app, procs, se.Scale.SweepParams(app, c.size, c.variant))
		if err != nil {
			return err
		}
		avg := r.Result.Average()
		busy, mem, sync := avg.Fractions()
		total := float64(r.Elapsed)
		if c.variant == "" {
			baseline = total
		}
		_ = i
		rows = append(rows, []string{
			c.label,
			fmt.Sprintf("%5.1f", 100*busy),
			fmt.Sprintf("%5.1f", 100*mem),
			fmt.Sprintf("%5.1f", 100*sync),
			fmt.Sprintf("%.2fx", total/baseline),
			perf.BreakdownBar(avg, 36),
		})
	}
	fprintf(w, "Figure 10: execution-time breakdowns of original and restructured versions, %d processors\n", procs)
	fprintf(w, "%s\n", perf.Table(rows))
	return nil
}

// appByNameOrPanic is a test helper.
func appByNameOrPanic(name string) workload.App {
	a := AppByName(name)
	if a == nil {
		panic("unknown app " + name)
	}
	return a
}
