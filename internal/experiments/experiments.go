// Package experiments reproduces every table and figure of the paper's
// evaluation: the Table 1 latency comparison, Table 2 sequential times, the
// Figure 2 speedups, Figure 3 breakdown, Figure 4/9 problem-size sweeps,
// Figures 5-8/10 per-processor breakdowns, the Table 3 placement
// comparison, and the Section 6/7 hardware-feature and topology studies.
//
// Paper-scale inputs are large; a Scale divides the problem sizes and —
// crucially — the cache, so working-set-to-cache ratios (which drive the
// paper's capacity effects) are preserved at reduced cost.
package experiments

import (
	"fmt"
	"io"

	"origin2000/internal/apps/barnes"
	"origin2000/internal/apps/fft"
	"origin2000/internal/apps/infer"
	"origin2000/internal/apps/ocean"
	"origin2000/internal/apps/protein"
	"origin2000/internal/apps/radix"
	"origin2000/internal/apps/raytrace"
	"origin2000/internal/apps/shearwarp"
	"origin2000/internal/apps/volrend"
	"origin2000/internal/apps/watern"
	"origin2000/internal/apps/waters"
	"origin2000/internal/core"
	"origin2000/internal/metrics"
	"origin2000/internal/perf"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/trace"
	"origin2000/internal/workload"
)

// Scale controls how far problem sizes and the cache are divided relative
// to the paper.
type Scale struct {
	// Div divides every problem size (1 = paper scale).
	Div int
	// CacheDiv divides the 4MB cache correspondingly.
	CacheDiv int
	// Steps overrides per-app timesteps/frames (0 = app defaults).
	Steps int
	// Procs overrides the processor counts used by the multi-machine
	// experiments (nil = the paper's counts).
	Procs []int
	// Seed for input generation.
	Seed int64
	// Check enables the online coherence-invariant checker on every
	// machine the scale builds; any experiment run then fails if the
	// protocol violates an invariant.
	Check bool
	// Trace configures the event tracer on every machine the scale
	// builds (zero value = tracing off).
	Trace trace.Options
	// Metrics configures the virtual-time sampler on every machine the
	// scale builds (zero value = sampling off).
	Metrics metrics.Options
	// Engine selects the execution engine on every machine the scale
	// builds: "serial" (default) or "parallel" (bit-identical, uses
	// Workers host cores).
	Engine string
	// Workers bounds the parallel engine's host workers (0 = GOMAXPROCS;
	// ignored for the serial engine).
	Workers int
	// HostProf enables the host-time profiler on every machine the scale
	// builds. Unlike Check/Metrics it does NOT force workers=1: the
	// profiler is schedule-neutral by contract.
	HostProf bool
	// CritPath enables critical-path recording on every machine the scale
	// builds (barrier-arrival snapshots; bit-identical at any worker
	// count).
	CritPath bool
	// Sharing enables the per-block sharing-pattern classifier on every
	// machine the scale builds. Like Check/Metrics it forces workers=1;
	// the schedule is identical at any worker count, so results are too.
	Sharing bool
	// OnMachine, when set, sees every machine RunConfig builds before the
	// application runs on it, labeled "<app>-p<procs>-s<size>": the hook
	// fault injection uses to reach Machine-level knobs the Config does
	// not carry, and the way a caller keeps the machine to read its
	// observers after the run — failed runs included, whose traces are
	// exactly the interesting ones.
	OnMachine func(label string, m *core.Machine)
	// Scenario declares the machine every config this scale builds:
	// interconnect topology, directory sharer format and latency preset
	// (see internal/scenario and DESIGN.md §16). nil selects the default
	// scenario, bit-identical to the pre-scenario hard-coded Origin.
	Scenario *scenario.Spec
}

// TestScale is small enough for unit tests.
var TestScale = Scale{Div: 64, CacheDiv: 64, Procs: []int{4, 8}}

func (s Scale) normalize() Scale {
	if s.Div < 1 {
		s.Div = 1
	}
	if s.CacheDiv < 1 {
		s.CacheDiv = 1
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// Machine builds a scaled Origin2000 configuration.
func (s Scale) Machine(procs int) core.Config {
	s = s.normalize()
	cfg := core.Origin2000(procs)
	cfg.Cache.SizeBytes /= s.CacheDiv
	if cfg.Cache.SizeBytes < 32<<10 {
		cfg.Cache.SizeBytes = 32 << 10
	}
	cfg.Check = s.Check
	cfg.Trace = s.Trace
	cfg.Metrics = s.Metrics
	cfg.Engine = s.Engine
	cfg.Workers = s.Workers
	cfg.HostProf = s.HostProf
	cfg.CritPath = s.CritPath
	cfg.Sharing.Enabled = s.Sharing
	if s.Scenario != nil {
		sc := s.Scenario.Normalized()
		cfg.Scenario = &sc
		if sc.Latency != "origin2000" {
			// Origin2000() preset the default latencies; zero them so
			// normalize resolves the scenario's Table-1 preset instead.
			cfg.Lat = core.Latencies{}
		}
	}
	return cfg
}

// procCounts returns the experiment's processor counts.
func (s Scale) procCounts(def []int) []int {
	if len(s.Procs) > 0 {
		return s.Procs
	}
	return def
}

// Apps returns the study's applications in the paper's Table 2 order.
func Apps() []workload.App {
	return []workload.App{
		barnes.New(),
		infer.New(),
		fft.New(),
		ocean.New(),
		protein.New(),
		radix.New(),
		raytrace.New(),
		shearwarp.New(),
		volrend.New(),
		watern.New(),
		waters.New(),
	}
}

// AppByName returns the named application, or nil.
func AppByName(name string) workload.App {
	for _, a := range Apps() {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// parallelismFloor is the smallest scaled basic size that keeps the
// paper's processor counts busy (128 processors need rows/tiles/bodies to
// partition).
var parallelismFloor = map[string]int{
	"FFT":            1 << 18,
	"Ocean":          258,
	"Radix":          1 << 18,
	"Barnes":         2048,
	"Water-Nsquared": 1024,
	"Water-Spatial":  1024,
	"Raytrace":       128,
	"Volrend":        64,
	"Shear-Warp":     64,
	"Infer":          192,
	"Protein":        12,
}

// constrain applies each application's structural size requirements
// (square powers of two, tile/brick multiples, even molecule counts, hard
// minimum viability).
func constrain(app workload.App, v int) int {
	switch app.Name() {
	case "FFT":
		n := 1 << 12
		for n*4 <= v {
			n *= 4
		}
		return n
	case "Ocean":
		if v < 34 {
			v = 34
		}
		return v
	case "Radix":
		if v < 1<<14 {
			v = 1 << 14
		}
		return v
	case "Barnes":
		if v < 512 {
			v = 512
		}
		return v
	case "Water-Nsquared", "Water-Spatial":
		if v < 128 {
			v = 128
		}
		return v &^ 1
	case "Raytrace", "Volrend", "Shear-Warp":
		if v < 32 {
			v = 32
		}
		return v &^ 7
	case "Infer":
		if v < 48 {
			v = 48
		}
		return v
	case "Protein":
		if v < 4 {
			v = 4
		}
		return v
	}
	if v < 1 {
		v = 1
	}
	return v
}

// Size scales a paper-scale problem size for the given app. The result is
// floored so the paper's processor counts stay busy, then constrained to
// the application's structural requirements.
func (s Scale) Size(app workload.App, paperSize int) int {
	s = s.normalize()
	if s.Div == 1 {
		return constrain(app, paperSize)
	}
	v := paperSize / s.Div
	if f := parallelismFloor[app.Name()]; v < f {
		v = f
	}
	return constrain(app, v)
}

// SweepSize scales a sweep point *relative to the scaled basic size*, so a
// problem-size sweep keeps the paper's ratios even when the basic size has
// been floored: Figure 4's trends survive scaling. Scaled sweeps cap the
// ratio at 4x the scaled basic (the paper's largest inputs exist to push
// working sets past the cache, which the scaled cache reaches sooner).
func (s Scale) SweepSize(app workload.App, paperSize int) int {
	s = s.normalize()
	if s.Div == 1 {
		return constrain(app, paperSize)
	}
	basic := s.Size(app, app.BasicSize())
	v := int(float64(basic) * float64(paperSize) / float64(app.BasicSize()))
	if v > 4*basic {
		v = 4 * basic
	}
	return constrain(app, v)
}

// BasicSize returns the app's scaled basic problem size.
func (s Scale) BasicSize(app workload.App) int { return s.Size(app, app.BasicSize()) }

// Params builds run parameters for an app at a paper-scale size.
func (s Scale) Params(app workload.App, paperSize int, variant string) workload.Params {
	s = s.normalize()
	return workload.Params{
		Size:    s.Size(app, paperSize),
		Variant: variant,
		Seed:    s.Seed,
		Steps:   s.Steps,
	}
}

// SweepParams builds run parameters with SweepSize scaling (size sweeps
// and "large problem" comparisons).
func (s Scale) SweepParams(app workload.App, paperSize int, variant string) workload.Params {
	p := s.Params(app, paperSize, variant)
	p.Size = s.SweepSize(app, paperSize)
	return p
}

// RunResult bundles one measured execution.
type RunResult struct {
	Procs   int
	Elapsed sim.Time
	Result  perf.Result
}

// Run executes app on a fresh scaled machine.
func (s Scale) Run(app workload.App, procs int, params workload.Params) (RunResult, error) {
	return s.RunConfig(app, s.Machine(procs), params)
}

// RunConfig executes app on a machine built from cfg, handing the machine
// to OnMachine first.
func (s Scale) RunConfig(app workload.App, cfg core.Config, params workload.Params) (RunResult, error) {
	m := core.New(cfg)
	if s.OnMachine != nil {
		s.OnMachine(fmt.Sprintf("%s-p%d-s%d", app.Name(), cfg.Procs, params.Size), m)
	}
	if err := app.Run(m, params); err != nil {
		return RunResult{}, fmt.Errorf("%s (procs=%d, size=%d, variant=%q): %w",
			app.Name(), cfg.Procs, params.Size, params.Variant, err)
	}
	return RunResult{Procs: cfg.Procs, Elapsed: m.Elapsed(), Result: m.Result()}, nil
}

// seqKey caches sequential reference times per (app, size, variant).
type seqKey struct {
	app     string
	size    int
	variant string
}

// runKey caches the elapsed times of parallel efficiency measurements.
type runKey struct {
	app     string
	size    int
	variant string
	procs   int
}

// Session caches sequential baselines and repeated parallel measurements
// across experiments; the simulator is deterministic, so caching is sound.
type Session struct {
	Scale Scale
	seq   map[seqKey]sim.Time
	runs  map[runKey]sim.Time
}

// NewSession creates a measurement session at the given scale.
func NewSession(s Scale) *Session {
	return &Session{
		Scale: s.normalize(),
		seq:   make(map[seqKey]sim.Time),
		runs:  make(map[runKey]sim.Time),
	}
}

// sequentialAt measures (and caches) the sequential time of app at an
// already-resolved size. Following the paper, speedups for restructured
// versions are measured against the same original sequential program.
func (se *Session) sequentialAt(app workload.App, size int) (sim.Time, error) {
	key := seqKey{app.Name(), size, ""}
	if t, ok := se.seq[key]; ok {
		return t, nil
	}
	params := workload.Params{Size: size, Seed: se.Scale.Seed, Steps: se.Scale.Steps}
	r, err := se.Scale.Run(app, 1, params)
	if err != nil {
		return 0, err
	}
	se.seq[key] = r.Elapsed
	return r.Elapsed, nil
}

// Sequential returns the sequential execution time of app at the given
// paper-scale size (Size scaling).
func (se *Session) Sequential(app workload.App, paperSize int) (sim.Time, error) {
	return se.sequentialAt(app, se.Scale.Size(app, paperSize))
}

// SweepSeries measures one efficiency-versus-size curve: app at procs
// processors over its sweep sizes, with X the SweepSize-scaled sizes.
// Figures 4 and 9 and origin sweep plot these points; the caller labels
// the series.
func (se *Session) SweepSeries(app workload.App, procs int, variant string) (perf.Series, error) {
	var s perf.Series
	for _, size := range app.SweepSizes() {
		params := se.Scale.SweepParams(app, size, variant)
		seq, err := se.sequentialAt(app, params.Size)
		if err != nil {
			return perf.Series{}, err
		}
		key := runKey{app.Name(), params.Size, params.Variant, procs}
		elapsed, ok := se.runs[key]
		if !ok {
			r, err := se.Scale.Run(app, procs, params)
			if err != nil {
				return perf.Series{}, err
			}
			elapsed = r.Elapsed
			se.runs[key] = elapsed
		}
		s.X = append(s.X, float64(params.Size))
		s.Y = append(s.Y, perf.Efficiency(seq, elapsed, procs))
	}
	return s, nil
}

// fprintf writes formatted output, ignoring errors (experiment output is
// best-effort diagnostics).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// Origin2000LatenciesForTest exposes the default latency preset to tests.
func Origin2000LatenciesForTest() core.Latencies { return core.Origin2000Latencies() }
