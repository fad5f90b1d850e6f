package experiments

import (
	"fmt"
	"io"

	"origin2000/internal/core"
	"origin2000/internal/perf"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/synchro"
	"origin2000/internal/topology"
)

// Sec61Prefetch regenerates the Section 6.1 study: software prefetching of
// remote data in FFT and Sample sort across machine sizes.
func Sec61Prefetch(se *Session, w io.Writer) error {
	procs := se.Scale.procCounts([]int{32, 64, 128})
	cases := []struct {
		app     string
		size    int
		variant string
	}{
		{"FFT", 1 << 22, ""},
		{"Radix", 16 << 20, "sample"},
	}
	header := []string{"Application"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("P=%d gain", p))
	}
	rows := [][]string{header}
	for _, c := range cases {
		app := AppByName(c.app)
		label := c.app
		if c.variant != "" {
			label += " (" + c.variant + ")"
		}
		row := []string{label}
		for _, p := range procs {
			base, err := se.Scale.Run(app, p, se.Scale.SweepParams(app, c.size, c.variant))
			if err != nil {
				return err
			}
			params := se.Scale.SweepParams(app, c.size, c.variant)
			params.Prefetch = true
			pre, err := se.Scale.Run(app, p, params)
			if err != nil {
				return err
			}
			gain := 100 * (1 - float64(pre.Elapsed)/float64(base.Elapsed))
			row = append(row, fmt.Sprintf("%+.1f%%", gain))
		}
		rows = append(rows, row)
	}
	fprintf(w, "Section 6.1: execution-time gain from prefetching remote data\n")
	fprintf(w, "(paper: FFT up to 20%% at 64p and 35%% at 128p; Sample sort ~20%% at 128p)\n")
	fprintf(w, "%s\n", perf.Table(rows))
	return nil
}

// Sec63Synchronization regenerates the Section 6.3 study: barrier and lock
// algorithm comparison, LL-SC versus the at-memory fetch&op.
func Sec63Synchronization(se *Session, w io.Writer) error {
	procs := 64
	if len(se.Scale.Procs) > 0 {
		procs = se.Scale.Procs[len(se.Scale.Procs)-1]
	}
	// Microbenchmark: 50 barrier episodes with imbalanced arrivals.
	fprintf(w, "Section 6.3: synchronization algorithms (%d processors)\n\n", procs)
	rows := [][]string{{"Barrier algorithm", "Time per episode", "Overhead share"}}
	for _, alg := range []synchro.BarrierAlgorithm{
		synchro.BarrierTournament, synchro.BarrierCentralized, synchro.BarrierFetchOp,
	} {
		m := core.New(se.Scale.Machine(procs))
		b := synchro.NewBarrier(m, procs, alg)
		err := m.Run(func(p *core.Proc) {
			for it := 0; it < 50; it++ {
				p.Compute(sim.Time((it*7+p.ID()*13)%17) * sim.Microsecond)
				b.Wait(p)
			}
		})
		if err != nil {
			return err
		}
		r := m.Result()
		perEp := m.Elapsed() / 50
		over := float64(r.Counters.SyncOverhead) /
			float64(r.Counters.SyncOverhead+r.Counters.SyncWait+1)
		rows = append(rows, []string{alg.String(), perEp.String(), fmt.Sprintf("%.1f%%", 100*over)})
	}
	fprintf(w, "%s\n", perf.Table(rows))

	// Application level: Water-Spatial (barrier bound at the basic size)
	// under each barrier algorithm.
	app := AppByName("Water-Spatial")
	rows = [][]string{{"Water-Spatial barrier", "Elapsed (ms)"}}
	for _, alg := range []synchro.BarrierAlgorithm{
		synchro.BarrierTournament, synchro.BarrierCentralized, synchro.BarrierFetchOp,
	} {
		params := se.Scale.Params(app, app.BasicSize(), "")
		params.Barrier = alg
		r, err := se.Scale.Run(app, procs, params)
		if err != nil {
			return err
		}
		rows = append(rows, []string{alg.String(), fmt.Sprintf("%.2f", r.Elapsed.Milliseconds())})
	}
	fprintf(w, "%s\n", perf.Table(rows))
	fprintf(w, "(paper: neither sophisticated algorithms nor fetch&op help noticeably —\n")
	fprintf(w, " wait time from imbalance dominates the operations themselves)\n\n")
	return nil
}

// Sec71Mapping regenerates the Section 7.1 study: mapping processes to the
// network topology for Barnes (irregular), Ocean (near-neighbour) and FFT
// (all-to-all).
func Sec71Mapping(se *Session, w io.Writer) error {
	procs := 128
	if len(se.Scale.Procs) > 0 {
		procs = se.Scale.Procs[len(se.Scale.Procs)-1]
	}
	run := func(appName string, paperSize int, variant string, mapping topology.Mapping) (sim.Time, error) {
		app := AppByName(appName)
		cfg := se.Scale.Machine(procs)
		cfg.Mapping = mapping
		r, err := se.Scale.RunConfig(app, cfg, se.Scale.SweepParams(app, paperSize, variant))
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	}
	fprintf(w, "Section 7.1: process-to-topology mapping (%d processors)\n\n", procs)

	// Barnes: linear vs random.
	rows := [][]string{{"Barnes (16K bodies)", "Elapsed (ms)"}}
	for _, c := range []struct {
		label string
		m     topology.Mapping
	}{
		{"linear", topology.Linear(procs)},
		{"random", topology.Random(procs, 7)},
	} {
		t, err := run("Barnes", 16<<10, "", c.m)
		if err != nil {
			return err
		}
		rows = append(rows, []string{c.label, fmt.Sprintf("%.2f", t.Milliseconds())})
	}
	fprintf(w, "%s(paper: linear consistently beats random for the irregular codes)\n\n", perf.Table(rows))

	// Ocean: near-neighbour pair mapping matters at large scale.
	rows = [][]string{{"Ocean rowwise (2050 grid)", "Elapsed (ms)"}}
	for _, c := range []struct {
		label string
		m     topology.Mapping
	}{
		{"gray-code pairs", topology.GrayPairs(procs, 2, 2)},
		{"linear", topology.Linear(procs)},
		{"random", topology.Random(procs, 7)},
		{"paired random", topology.PairedRandom(procs, 7)},
	} {
		t, err := run("Ocean", 2050, "rowwise", c.m)
		if err != nil {
			return err
		}
		rows = append(rows, []string{c.label, fmt.Sprintf("%.2f", t.Milliseconds())})
	}
	fprintf(w, "%s(paper: near-neighbour mapping ~20%% better than random at 128p)\n\n", perf.Table(rows))

	// FFT: what matters is that transpose partners are off-node.
	rows = [][]string{{"FFT (2^22 points)", "Elapsed (ms)"}}
	type fftCase struct {
		label   string
		variant string
		m       topology.Mapping
	}
	for _, c := range []fftCase{
		{"linear, partner +1 (bad: on-node start)", "", topology.Linear(procs)},
		{"random mapping", "", topology.Random(procs, 7)},
		{"linear, off-node transpose order", "offnode", topology.Linear(procs)},
	} {
		t, err := run("FFT", 1<<22, c.variant, c.m)
		if err != nil {
			return err
		}
		rows = append(rows, []string{c.label, fmt.Sprintf("%.2f", t.Milliseconds())})
	}
	fprintf(w, "%s(paper: random mapping or an off-node transpose order both fix the\n", perf.Table(rows))
	fprintf(w, " on-node first-partner problem and perform equivalently)\n\n")

	// With and without metarouters at 64 processors: the paper found
	// metarouters help FFT on large systems by spreading contention,
	// despite the latency they add.
	rows = [][]string{{"FFT at 64 procs", "Elapsed (ms)"}}
	for _, meta := range []bool{false, true} {
		app := AppByName("FFT")
		s, label := se.Scale, "full hypercube"
		if meta {
			spec, _ := scenario.Named("origin-meta")
			s.Scenario, label = &spec, "hypercube modules + metarouters"
		}
		r, err := s.RunConfig(app, s.Machine(64), s.SweepParams(app, 1<<22, ""))
		if err != nil {
			return err
		}
		rows = append(rows, []string{label, fmt.Sprintf("%.2f", r.Elapsed.Milliseconds())})
	}
	fprintf(w, "%s(paper: metarouters can help all-to-all traffic by reducing contention,\n", perf.Table(rows))
	fprintf(w, " at the cost of added latency)\n\n")
	return nil
}

// Sec72ProcsPerNode regenerates the Section 7.2 study: one versus two
// processors per node, at the same total processor count.
func Sec72ProcsPerNode(se *Session, w io.Writer) error {
	procs := 32
	if len(se.Scale.Procs) > 0 {
		procs = se.Scale.Procs[0]
	}
	cases := []struct {
		app     string
		size    int
		variant string
		label   string
	}{
		{"Radix", 128 << 20, "sample", "Sample sort, 128M keys"},
		{"FFT", 1 << 24, "", "FFT, 2^24 points"},
		{"Ocean", 2050, "", "Ocean, 2050 grid"},
		{"Raytrace", 512, "", "Raytrace, 512 image"},
	}
	rows := [][]string{{"Application", "2 procs/node (ms)", "1 proc/node (ms)", "1ppn gain"}}
	for _, c := range cases {
		app := AppByName(c.app)
		params := se.Scale.SweepParams(app, c.size, c.variant)
		var elapsed [2]sim.Time
		for i, ppn := range []int{2, 1} {
			cfg := se.Scale.Machine(procs)
			cfg.ProcsPerNode = ppn
			r, err := se.Scale.RunConfig(app, cfg, params)
			if err != nil {
				return err
			}
			elapsed[i] = r.Elapsed
		}
		gain := 100 * (1 - float64(elapsed[1])/float64(elapsed[0]))
		rows = append(rows, []string{
			c.label,
			fmt.Sprintf("%.2f", elapsed[0].Milliseconds()),
			fmt.Sprintf("%.2f", elapsed[1].Milliseconds()),
			fmt.Sprintf("%+.1f%%", gain),
		})
	}
	fprintf(w, "Section 7.2: one vs two processors per node, %d processors, large sizes\n", procs)
	fprintf(w, "(paper: with large problems and capacity-related Hub contention, one\n")
	fprintf(w, " processor per node wins — 40%% for Sample sort at 32p)\n")
	fprintf(w, "%s\n", perf.Table(rows))
	return nil
}

// experiment is one name Run accepts. The ones in All run there, in paper
// order; the rest are aliases of one of those, or the ablation, which is
// not the paper's.
type experiment struct {
	name  string
	run   func(se *Session, w io.Writer) error
	inAll bool
}

// experimentList is every name Run accepts but "all".
var experimentList = []experiment{
	{"table1", func(_ *Session, w io.Writer) error { return Table1(w) }, true},
	{"table2", Table2, true},
	{"fig2", Figure2, true},
	{"fig3", Figure3, true},
	{"fig4", Figure4, true},
	{"fig5-8", Figures5to8, true},
	{"fig5", Figures5to8, false},
	{"fig6", Figures5to8, false},
	{"fig7", Figures5to8, false},
	{"fig8", Figures5to8, false},
	{"fig9", Figure9, true},
	{"fig10", Figure10, true},
	{"table3", Table3, true},
	{"sec61", Sec61Prefetch, true},
	{"sec62", Table3, false}, // migration is Table 3's third column
	{"sec63", Sec63Synchronization, true},
	{"sec71", Sec71Mapping, true},
	{"sec72", Sec72ProcsPerNode, true},
	{"ablation", Ablation, false},
}

// All runs every experiment in paper order at the session's scale.
func All(se *Session, w io.Writer) error {
	for _, e := range experimentList {
		if !e.inAll {
			continue
		}
		if err := e.run(se, w); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

// Run executes the named experiment (one of Names) at the session's scale.
func Run(name string, se *Session, w io.Writer) error {
	if name == "all" {
		return All(se, w)
	}
	for _, e := range experimentList {
		if e.name == name {
			return e.run(se, w)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", name)
}

// Names lists every name Run accepts.
func Names() []string {
	names := make([]string, 0, len(experimentList)+1)
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	return append(names, "all")
}
