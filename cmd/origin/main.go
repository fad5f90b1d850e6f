// Command origin runs the simulated Origin2000. Its subcommands run one
// application, sweep one over problem sizes, compare two runs exactly,
// and regenerate the paper's tables and figures.
//
// Usage:
//
//	origin run -app FFT [-procs 64] [-size 0] [-variant ""] [-prefetch]
//	           [-scale 8] [-steps N] [-seed 42] [-scenario mesh] [-breakdown]
//	           [-arrays] [-phases] [-ppn 2] [-mapping linear|random|gray|split]
//	           [-trace run.json] [-explain] [-top 10] [-record run.json]
//	           [-engine serial|parallel] [-workers 0] [-hostprof hostprof.json]
//	           [-checkpoint-every 1ms] [-checkpoint-dir checkpoints]
//	origin run -resume checkpoints/ckpt-000002.originckpt [-engine parallel]
//	origin run -list
//	origin sweep -app Barnes [-procs 32,64,128] [-variant spatial] [-scale 8]
//	             [-seed 42] [-scenario mesh,origin]
//	origin diff [-app FFT] [-procs 32] [-a placement=ft] [-b placement=rr]
//	            [-critpath] [-save-a a.json] [-save-b b.json]
//	origin diff -a first.json -b second.json
//	origin experiments [-run all] [-scale 8] [-cachescale N] [-procs list]
//	                   [-steps N] [-full] [-check] [-artifacts DIR]
//
// Every flag is declared once, in newFlagSet, so a flag means the same
// thing with the same checks in every subcommand that takes it. A bad
// flag exits 2 naming it; a run that fails exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"origin2000/internal/experiments"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/workload"
)

func main() { os.Exit(origin(os.Args[1:], os.Stdout, os.Stderr)) }

// origin runs the subcommand args names and returns its exit code.
func origin(args []string, stdout, stderr io.Writer) int {
	mains := map[string]func(args []string, stdout, stderr io.Writer) int{
		"run": runMain, "sweep": sweepMain, "diff": diffMain, "experiments": experimentsMain,
	}
	if len(args) > 0 {
		if m := mains[args[0]]; m != nil {
			return m(args[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "origin: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: origin <subcommand> [flags]\n\nSubcommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(stderr, "\n`origin <subcommand> -h` lists a subcommand's flags.")
	return 2
}

// command is one subcommand's flag set: the flags it binds, in the order
// its help lists them, and the defaults that differ between subcommands.
type command struct {
	name, summary string
	app, procs    string
	top           int
	// lists makes -procs and -scenario take comma-separated lists.
	lists bool
	flags []string
}

var commands = []command{
	{name: "run", summary: "run one application; print its speedup, breakdown and reports",
		app: "FFT", procs: "64", top: 10,
		flags: []string{"app", "procs", "size", "variant", "prefetch", "scale", "steps", "seed", "scenario",
			"list", "breakdown", "arrays", "phases", "ppn", "mapping", "trace", "explain", "top", "record",
			"engine", "workers", "hostprof", "checkpoint-every", "checkpoint-dir", "resume"}},
	{name: "sweep", summary: "plot parallel efficiency against problem size (Figures 4 and 9)",
		app: "Barnes", procs: "32,64,128", lists: true,
		flags: []string{"app", "procs", "variant", "scale", "seed", "scenario"}},
	{name: "diff", summary: "attribute the virtual-time difference between two runs exactly",
		app: "FFT", procs: "32", top: 8,
		flags: []string{"app", "procs", "size", "scale", "steps", "seed",
			"interval", "top", "a", "b", "save-a", "save-b", "critpath"}},
	{name: "experiments", summary: "regenerate the paper's tables and figures",
		lists: true,
		flags: []string{"run", "scale", "cachescale", "procs", "steps", "seed", "full", "check", "artifacts"}},
}

// opts holds the flag values of a subcommand, and what resolve makes of
// them.
type opts struct {
	// The run flags.
	app, procs, variant, scenario string
	size, scale, steps, seed      int
	prefetch                      bool

	// run's own.
	list, breakdown, arrays, phases, explain bool
	ppn, top, workers                        int
	mapping, trace, record, engine, hostprof string
	ckptEvery, ckptDir, resume               string

	// experiments' own.
	experiment, artifacts string
	cachescale            int
	full, check           bool

	// diff's own.
	interval           int
	a, b, saveA, saveB string
	critpath           bool

	lists bool

	// Set by resolve: the application (nil without -app), the processor
	// counts (nil for an empty list) and the scenarios.
	application workload.App
	counts      []int
	specs       []scenario.Spec
}

// newFlagSet returns the flag set of subcommand name, bound to a new opts.
// It declares every flag of every subcommand, each once.
func newFlagSet(name string, stderr io.Writer) (*opts, *flag.FlagSet) {
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	c := commands[i]
	o := &opts{lists: c.lists}
	fs := flag.NewFlagSet("origin "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	for _, f := range c.flags {
		switch f {
		case "app":
			fs.StringVar(&o.app, f, c.app, "application name (see origin run -list)")
		case "procs":
			fs.StringVar(&o.procs, f, c.procs, "processor count; sweep and experiments take a comma-separated list (experiments: empty = the paper's counts)")
		case "size":
			intVar(fs, &o.size, f, 0, atLeast(0), "problem `size` in app units (0 = basic size)")
		case "variant":
			fs.StringVar(&o.variant, f, "", "algorithm variant (sweep plots it beside the original)")
		case "prefetch":
			fs.BoolVar(&o.prefetch, f, false, "enable remote-data prefetching")
		case "scale":
			intVar(fs, &o.scale, f, 8, atLeast(1), "divide problem sizes and cache by this `factor`")
		case "steps":
			intVar(fs, &o.steps, f, 0, atLeast(0), "`timesteps`/frames (0 = app default)")
		case "seed":
			intVar(fs, &o.seed, f, 42, nonzero, "input `seed`")
		case "scenario":
			fs.StringVar(&o.scenario, f, "", "machine scenario: a preset name (origin, mesh, fattree, limited, ...) or a spec .json file; sweep takes a comma-separated list; empty = the default Origin machine")
		case "list":
			fs.BoolVar(&o.list, f, false, "list applications and variants")
		case "breakdown":
			fs.BoolVar(&o.breakdown, f, false, "print the per-processor breakdown figure")
		case "arrays":
			fs.BoolVar(&o.arrays, f, false, "attribute misses, upgrades and their stall to named allocations (turns the tracer on; the tooling the paper wished the Origin had)")
		case "phases":
			fs.BoolVar(&o.phases, f, false, "print the per-phase time breakdown (instrumented apps)")
		case "ppn":
			intVar(fs, &o.ppn, f, 2, atLeast(1), "processors per node (Section 7.2)")
		case "mapping":
			fs.StringVar(&o.mapping, f, "linear", "process mapping: linear, random, gray, split")
		case "trace":
			fs.StringVar(&o.trace, f, "", "trace every event of the run, write Perfetto JSON here and print the attribution tables")
		case "explain":
			fs.BoolVar(&o.explain, f, false, "turn the sharing classifier on and print why the run does or does not scale")
		case "top":
			fs.IntVar(&o.top, f, c.top, "rows per ranked table (0 = all)")
		case "record":
			fs.StringVar(&o.record, f, "", "write the run's artifact JSON, sharing report included, here (an origin diff side)")
		case "engine":
			fs.StringVar(&o.engine, f, "serial", "execution engine: serial, or parallel (bit-identical; measured slower than serial)")
		case "workers":
			intVar(fs, &o.workers, f, 0, atLeast(0), "host workers for -engine=parallel (0 = GOMAXPROCS)")
		case "hostprof":
			fs.StringVar(&o.hostprof, f, "", "profile the engine's host time and write a Perfetto timeline here (parallel engine; schedule-neutral)")
		case "checkpoint-every":
			fs.StringVar(&o.ckptEvery, f, "", "write an originckpt checkpoint every virtual duration (e.g. 1ms, 100us)")
		case "checkpoint-dir":
			fs.StringVar(&o.ckptDir, f, "checkpoints", "directory for -checkpoint-every checkpoint files")
		case "resume":
			fs.StringVar(&o.resume, f, "", "resume from an originckpt file: replay to its quiescent point, prove state equality, continue")
		case "run":
			fs.StringVar(&o.experiment, f, "all", "experiment to run: "+strings.Join(experiments.Names(), ", "))
		case "cachescale":
			intVar(fs, &o.cachescale, f, 0, atLeast(0), "divide the cache by this `factor` (0 = the -scale factor)")
		case "full":
			fs.BoolVar(&o.full, f, false, "run at the paper's input sizes (expensive)")
		case "check":
			fs.BoolVar(&o.check, f, false, "run the online coherence checker on every machine; a violation fails the run")
		case "artifacts":
			fs.StringVar(&o.artifacts, f, "", "record ring traces and write the failing run's Perfetto trace to this directory")
		case "interval":
			intVar(fs, &o.interval, f, 0, micros, "sampling interval in `microseconds` (0 = default)")
		case "a":
			fs.StringVar(&o.a, f, "placement=ft", "side A: artifact JSON path or run spec")
		case "b":
			fs.StringVar(&o.b, f, "placement=rr", "side B: artifact JSON path or run spec")
		case "save-a":
			fs.StringVar(&o.saveA, f, "", "write side A's artifact JSON here")
		case "save-b":
			fs.StringVar(&o.saveB, f, "", "write side B's artifact JSON here")
		case "critpath":
			fs.BoolVar(&o.critpath, f, false, "analyze each side's critical path: exact decomposition of elapsed time")
		default:
			panic("origin: no flag -" + f)
		}
	}
	return o, fs
}

// parse parses args into o and resolves them. On a bad flag it reports
// the flag and returns false, and the subcommand exits 2.
func (o *opts) parse(fs *flag.FlagSet, args []string) bool {
	if fs.Parse(args) != nil {
		return false // the flag set has reported it
	}
	if err := o.resolve(); err != nil {
		fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
		return false
	}
	return true
}

// resolve looks up -app and parses -scenario and -procs, checking what no
// flag can check alone: that -variant is one of -app's, and that every
// -procs count fits every -scenario.
func (o *opts) resolve() error {
	if o.app != "" {
		if o.application = experiments.AppByName(o.app); o.application == nil {
			return fmt.Errorf("-app: unknown application %q (see origin run -list)", o.app)
		}
		if err := checkVariant(o.application, o.variant); err != nil {
			return fmt.Errorf("-variant: %w", err)
		}
	}
	var err error
	if o.specs, err = scenarios(o.scenario, o.lists); err != nil {
		return err
	}
	o.counts, err = procCounts(o.procs, o.lists, o.specs)
	return err
}

// scenarios parses -scenario: a comma-separated list when list is set,
// else one scenario; empty is the default machine. It holds the command's
// one scenario.Load.
func scenarios(arg string, list bool) ([]scenario.Spec, error) {
	args := []string{arg}
	if list {
		args = strings.Split(arg, ",")
	}
	specs := make([]scenario.Spec, len(args))
	for i, a := range args {
		sc, err := scenario.Load(strings.TrimSpace(a))
		if err != nil {
			return nil, fmt.Errorf("-scenario: %w", err)
		}
		specs[i] = sc
	}
	return specs, nil
}

// procCounts parses -procs: a comma-separated list when list is set (empty
// for none), else exactly one count. Every count must be at least 1 and
// within every scenario's capacity.
func procCounts(arg string, list bool, specs []scenario.Spec) ([]int, error) {
	if list && arg == "" {
		return nil, nil
	}
	toks := []string{arg}
	if list {
		toks = strings.Split(arg, ",")
	}
	counts := make([]int, len(toks))
	for i, tok := range toks {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			if !list {
				return nil, fmt.Errorf("-procs %q: want one processor count", arg)
			}
			return nil, fmt.Errorf("-procs %q: %q is not a processor count", arg, tok)
		}
		if n < 1 {
			return nil, fmt.Errorf("-procs %d: must be at least 1", n)
		}
		for _, sc := range specs {
			if err := sc.Validate(n); err != nil {
				return nil, fmt.Errorf("-procs %d: %w", n, err)
			}
		}
		counts[i] = n
	}
	return counts, nil
}

// scaleOn returns the experiment scale the run flags describe on spec.
func (o *opts) scaleOn(spec *scenario.Spec) experiments.Scale {
	return experiments.Scale{Div: o.scale, CacheDiv: o.scale, Steps: o.steps, Seed: int64(o.seed), Scenario: spec}
}

// params returns app's problem size at paper scale (the -size flag, or
// the basic size when it is 0) and its parameters at scale s.
func (o *opts) params(s experiments.Scale, app workload.App) (int, workload.Params) {
	size := o.size
	if size == 0 {
		size = app.BasicSize()
	}
	params := s.Params(app, size, o.variant)
	params.Prefetch = o.prefetch
	return size, params
}

// checkVariant returns an error naming app and its variants unless v is
// one of them ("" is the original algorithm), so a typo fails instead of
// running the original algorithm under the typo's label.
func checkVariant(app workload.App, v string) error {
	vs := app.Variants()
	if slices.Contains(vs, v) {
		return nil
	}
	quoted := make([]string, len(vs))
	for i, x := range vs {
		quoted[i] = strconv.Quote(x)
	}
	return fmt.Errorf("%s has no variant %q (variants: %s)", app.Name(), v, strings.Join(quoted, ", "))
}

// intFlag is an integer flag value that refuses what ok refuses; the flag
// set's error names the flag.
type intFlag struct {
	p  *int
	ok func(int) error
}

// intVar declares an integer flag with default def.
func intVar(fs *flag.FlagSet, p *int, name string, def int, ok func(int) error, usage string) {
	*p = def
	fs.Var(intFlag{p, ok}, name, usage)
}

func (f intFlag) String() string {
	if f.p == nil {
		return "0"
	}
	return strconv.Itoa(*f.p)
}

func (f intFlag) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return errors.New("not an integer")
	}
	if err := f.ok(int(n)); err != nil {
		return err
	}
	*f.p = int(n)
	return nil
}

// atLeast refuses a value below floor.
func atLeast(floor int) func(int) error {
	return func(n int) error {
		if n < floor {
			return fmt.Errorf("must be at least %d", floor)
		}
		return nil
	}
}

// nonzero refuses 0, which the experiment harness reads as its default
// seed, 42.
func nonzero(n int) error {
	if n == 0 {
		return errors.New("0 would run as the default seed, 42")
	}
	return nil
}

// micros refuses a negative count of microseconds, and one whose
// picosecond product would overflow sim.Time and wrap to a short
// interval.
func micros(n int) error {
	if most := int(math.MaxInt64 / sim.Microsecond); n < 0 || n > most {
		return fmt.Errorf("want a count of microseconds from 0 to %d", most)
	}
	return nil
}
