package main

import (
	"bytes"
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"origin2000/internal/experiments"
	"origin2000/internal/scenario"
)

// runCLI runs the command with args and returns its exit code, stdout and
// stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := origin(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// parseRun parses args as origin run's flags and resolves them.
func parseRun(t *testing.T, args ...string) (*opts, error) {
	t.Helper()
	o, fs := newFlagSet("run", io.Discard)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.resolve()
}

// TestUsage: with no subcommand, or an unknown one, the command lists its
// four subcommands and exits 2.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-app", "FFT"}} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 || stdout != "" {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
		for _, c := range []string{"run", "sweep", "diff", "experiments"} {
			if !strings.Contains(stderr, "\n  "+c+" ") {
				t.Errorf("%q: usage does not list %s:\n%s", args, c, stderr)
			}
		}
	}
}

// TestFlagSetsBindTheirFlags: each subcommand's flag set binds exactly the
// flags its command lists, each once.
func TestFlagSetsBindTheirFlags(t *testing.T) {
	for _, c := range commands {
		_, fs := newFlagSet(c.name, io.Discard)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		want := slices.Clone(c.flags)
		slices.Sort(want)
		if !slices.Equal(got, slices.Compact(want)) || len(got) != len(c.flags) {
			t.Errorf("%s binds %v, want %v once each", c.name, got, c.flags)
		}
	}
}

// TestResolveRejectsBadValues: every out-of-range value fails with an
// error naming its flag instead of running a clamped or empty machine.
func TestResolveRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "-4"},
		{"-procs", "4,8"},
		{"-procs", "200"},
		{"-scale", "0"},
		{"-scale", "-2"},
		{"-size", "-1"},
		{"-steps", "-1"},
		{"-seed", "0"},
		{"-ppn", "0"},
		{"-workers", "-1"},
		{"-app", "Bogus"},
		{"-variant", "smaple"},
		{"-scenario", "bogus"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			_, err := parseRun(t, args...)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), args[0]) {
				t.Errorf("error %q does not name %s", err, args[0])
			}
		})
	}
}

// TestResolveDefaults: run's defaults, and the size-0 rule and the scale
// reaching the parameters.
func TestResolveDefaults(t *testing.T) {
	o, err := parseRun(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.application.Name() != "FFT" || !slices.Equal(o.counts, []int{64}) || o.scale != 8 || o.seed != 42 || o.top != 10 {
		t.Errorf("run defaults to %s at %v procs, scale %d, seed %d, top %d; want FFT at 64, 8, 42, 10",
			o.application.Name(), o.counts, o.scale, o.seed, o.top)
	}
	o, err = parseRun(t, "-app", "Ocean", "-procs", "32", "-scale", "64", "-prefetch")
	if err != nil {
		t.Fatal(err)
	}
	s := o.scaleOn(&o.specs[0])
	size, params := o.params(s, o.application)
	if size != o.application.BasicSize() {
		t.Errorf("paper size = %d, want the basic size %d", size, o.application.BasicSize())
	}
	if want := s.Params(o.application, size, ""); params.Size != want.Size || !params.Prefetch {
		t.Errorf("Params = %+v, want size %d with prefetch", params, want.Size)
	}
	if s.Div != 64 || s.CacheDiv != 64 || s.Scenario == nil || !s.Scenario.IsDefault() {
		t.Errorf("scale = %+v, want 1/64 on the default machine", s)
	}
}

// TestResolveChecksVariant: a variant the application does not have fails
// naming the application and every variant it has, and each variant it
// has resolves into the parameters.
func TestResolveChecksVariant(t *testing.T) {
	_, err := parseRun(t, "-app", "Radix", "-variant", "smaple")
	if err == nil {
		t.Fatal("unknown variant accepted")
	}
	for _, want := range []string{"-variant", "Radix", `"smaple"`, `"", "buffered", "sample"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	for _, v := range experiments.AppByName("Radix").Variants() {
		o, err := parseRun(t, "-app", "Radix", "-variant", v)
		if err != nil {
			t.Errorf("variant %q: %v", v, err)
			continue
		}
		if _, params := o.params(o.scaleOn(nil), o.application); params.Variant != v {
			t.Errorf("variant %q resolved to %q", v, params.Variant)
		}
	}
}

// TestSeedZeroRefused: the experiment harness reads seed 0 as its default,
// 42, so -seed 0 would print the seed-42 run under another label. Every
// subcommand refuses it before running anything. (The other flags keep
// the run short should it start.)
func TestSeedZeroRefused(t *testing.T) {
	small := []string{"-app", "Protein", "-procs", "4", "-scale", "64"}
	for _, args := range [][]string{
		append([]string{"run", "-seed", "0"}, small...),
		append([]string{"sweep", "-seed", "0"}, small...),
		append([]string{"diff", "-seed", "0"}, small...),
		{"experiments", "-seed", "0", "-run", "table1"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-seed") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 naming -seed", args, code, stdout, stderr)
		}
	}
}

// TestBadFlagExitsTwo: on every subcommand a bad flag value exits 2 with a
// message naming the flag, before anything is printed or run. (The other
// flags keep the run short should it start.)
func TestBadFlagExitsTwo(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-procs", []string{"run", "-procs", "4,8"}},
		{"-ppn", []string{"run", "-ppn", "0"}},
		{"-mapping", []string{"run", "-mapping", "diagonal", "-app", "FFT", "-procs", "4", "-scale", "64"}},
		{"-checkpoint-every", []string{"run", "-checkpoint-every", "0s", "-app", "FFT", "-procs", "4", "-scale", "64"}},
		{"-checkpoint-every", []string{"run", "-checkpoint-every", "soon", "-app", "FFT", "-procs", "4", "-scale", "64"}},
		{"-procs", []string{"sweep", "-app", "Protein", "-procs", "4,x", "-scale", "64"}},
		{"-procs", []string{"sweep", "-app", "Protein", "-procs", "4,256", "-scale", "64"}},
		{"-procs", []string{"sweep", "-app", "Protein", "-procs", "128", "-scale", "64"}},
		{"-scenario", []string{"sweep", "-app", "Protein", "-procs", "4", "-scale", "64", "-scenario", "origin,bogus"}},
		{"-variant", []string{"sweep", "-app", "Radix", "-procs", "4", "-scale", "64", "-variant", "smaple"}},
		{"-app", []string{"diff", "-app", "Bogus", "-procs", "4", "-scale", "64"}},
		{"-procs", []string{"diff", "-app", "FFT", "-procs", "4,8", "-scale", "64"}},
		{"-interval", []string{"diff", "-app", "FFT", "-procs", "4", "-scale", "64", "-interval", "-1"}},
		{"-interval", []string{"diff", "-app", "FFT", "-procs", "4", "-scale", "64", "-interval", "9223372036855"}},
		{"-scale", []string{"experiments", "-run", "table1", "-scale", "0"}},
		{"-cachescale", []string{"experiments", "-run", "table1", "-cachescale", "-1"}},
		{"-steps", []string{"experiments", "-run", "table1", "-steps", "-1"}},
		{"-procs", []string{"experiments", "-run", "table1", "-procs", "0,8"}},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			code, stdout, stderr := runCLI(c.args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, c.flag) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 naming %s", code, stdout, stderr, c.flag)
			}
		})
	}
}

// TestProcCounts: -procs is one count for run and diff and a list for
// sweep and experiments, and every count must be at least 1 and fit
// every scenario.
func TestProcCounts(t *testing.T) {
	mesh, _ := scenario.Named("mesh")
	both := []scenario.Spec{scenario.Default(), mesh}
	for _, c := range []struct {
		arg  string
		list bool
		want []int
	}{
		{"64", false, []int{64}},
		{"32, 64,128", true, []int{32, 64, 128}},
		{"", true, nil},
	} {
		got, err := procCounts(c.arg, c.list, both)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("procCounts(%q, %v) = %v, %v; want %v", c.arg, c.list, got, err, c.want)
		}
	}
	for _, c := range []struct {
		arg  string
		list bool
		want string
	}{
		{"4,8", false, "want one processor count"},
		{"", false, "want one processor count"},
		{"4,x", true, `"x" is not a processor count`},
		{"4,0", true, "-procs 0: must be at least 1"},
		{"64,129", true, "capacity of 128"},
	} {
		if _, err := procCounts(c.arg, c.list, both); err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "-procs") {
			t.Errorf("procCounts(%q, %v): err = %v, want one naming -procs and %q", c.arg, c.list, err, c.want)
		}
	}
}
