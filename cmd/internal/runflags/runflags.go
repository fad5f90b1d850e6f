// Package runflags declares the run flags that origin-run and
// origin-explain share, and resolves them into one run: the application,
// its processor count, the scale with its machine scenario, and the
// workload parameters.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"origin2000/internal/experiments"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/workload"
)

// Flags holds the shared run flags once parsed.
type Flags struct {
	App      string
	Procs    int
	Size     int
	Variant  string
	Prefetch bool
	Scale    int
	Steps    int
	Seed     int64
	Scenario string
}

// Register declares the shared run flags on fs. app and procs are the
// CLI's defaults for -app and -procs; every other default is common.
func Register(fs *flag.FlagSet, app string, procs int) *Flags {
	f := &Flags{}
	fs.StringVar(&f.App, "app", app, "application name (see origin-run -list)")
	fs.IntVar(&f.Procs, "procs", procs, "processor count")
	fs.IntVar(&f.Size, "size", 0, "problem size in app units (0 = basic size)")
	fs.StringVar(&f.Variant, "variant", "", "algorithm variant")
	fs.BoolVar(&f.Prefetch, "prefetch", false, "enable remote-data prefetching")
	fs.IntVar(&f.Scale, "scale", 8, "divide problem sizes and cache by this factor")
	fs.IntVar(&f.Steps, "steps", 0, "timesteps/frames (0 = app default)")
	fs.Int64Var(&f.Seed, "seed", 42, "input seed")
	fs.StringVar(&f.Scenario, "scenario", "", "machine scenario: a preset name (origin, mesh, fattree, limited, ...) or a spec .json file; empty = the default Origin machine")
	return f
}

// Run is one resolved run.
type Run struct {
	App   workload.App
	Procs int
	// Scale divides sizes and cache by -scale and carries the scenario.
	Scale experiments.Scale
	// PaperSize is -size, or App's basic size when -size is 0; Params
	// holds it scaled.
	PaperSize int
	Params    workload.Params

	size     int
	variant  string
	prefetch bool
}

// Resolve checks the flag values, loads the scenario and validates it for
// -procs, and resolves the run of the -app application.
func (f *Flags) Resolve() (Run, error) {
	if err := errors.Join(
		AtLeast("procs", f.Procs, 1),
		AtLeast("scale", f.Scale, 1),
		AtLeast("size", f.Size, 0),
		AtLeast("steps", f.Steps, 0),
	); err != nil {
		return Run{}, err
	}
	app := experiments.AppByName(f.App)
	if app == nil {
		return Run{}, fmt.Errorf("-app: unknown application %q (see origin-run -list)", f.App)
	}
	if err := Variant(app, f.Variant); err != nil {
		return Run{}, fmt.Errorf("-variant: %w", err)
	}
	spec, err := scenario.Load(f.Scenario)
	if err != nil {
		return Run{}, err
	}
	if err := spec.Validate(f.Procs); err != nil {
		return Run{}, err
	}
	r := Run{
		Procs:    f.Procs,
		Scale:    experiments.Scale{Div: f.Scale, CacheDiv: f.Scale, Steps: f.Steps, Seed: f.Seed, Scenario: &spec},
		size:     f.Size,
		variant:  f.Variant,
		prefetch: f.Prefetch,
	}
	return r.With(app), nil
}

// With returns the run resolved for app in place of the -app application:
// the same flags, with app's basic size when -size is 0.
func (r Run) With(app workload.App) Run {
	r.App = app
	r.PaperSize = r.size
	if r.PaperSize == 0 {
		r.PaperSize = app.BasicSize()
	}
	r.Params = r.Scale.Params(app, r.PaperSize, r.variant)
	r.Params.Prefetch = r.prefetch
	return r
}

// Variant returns an error naming app and its variants unless v is one of
// them ("" is the original algorithm). Every CLI that takes a variant
// checks it here, so a typo fails instead of running the original
// algorithm under the typo's label.
func Variant(app workload.App, v string) error {
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

// Micros converts us microseconds, the value of flag or query key name, to
// virtual time. It refuses a negative count, and one whose picosecond
// product would overflow sim.Time and wrap to a short interval.
func Micros(name string, us int64) (sim.Time, error) {
	const most = int64(math.MaxInt64 / sim.Microsecond)
	if us < 0 || us > most {
		return 0, fmt.Errorf("%s %d: want a count of microseconds from 0 to %d", name, us, most)
	}
	return sim.Time(us) * sim.Microsecond, nil
}

// AtLeast returns an error naming flag -name when its value v is below
// floor.
func AtLeast(name string, v, floor int) error {
	if v < floor {
		return fmt.Errorf("-%s %d: must be at least %d", name, v, floor)
	}
	return nil
}
