package runflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"origin2000/internal/experiments"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "Ocean", 32)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestResolveRejectsBadValues: every out-of-range value fails with an
// error naming its flag instead of running a clamped or empty machine.
func TestResolveRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "-4"},
		{"-scale", "0"},
		{"-scale", "-2"},
		{"-size", "-1"},
		{"-steps", "-1"},
		{"-app", "Bogus"},
		{"-variant", "smaple"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			_, err := parse(t, args...).Resolve()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), args[0]) {
				t.Errorf("error %q does not name %s", err, args[0])
			}
		})
	}
}

// TestResolveDefaults: the size-0 rule and the scale reach the parameters,
// and With re-resolves them for another application.
func TestResolveDefaults(t *testing.T) {
	r, err := parse(t, "-scale", "64", "-prefetch").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.App.Name() != "Ocean" || r.Procs != 32 {
		t.Fatalf("run = %s at %d procs, want Ocean at 32", r.App.Name(), r.Procs)
	}
	if r.PaperSize != r.App.BasicSize() {
		t.Errorf("PaperSize = %d, want the basic size %d", r.PaperSize, r.App.BasicSize())
	}
	if want := r.Scale.Params(r.App, r.PaperSize, ""); r.Params.Size != want.Size || !r.Params.Prefetch {
		t.Errorf("Params = %+v, want size %d with prefetch", r.Params, want.Size)
	}
	if r.Scale.Scenario == nil || !r.Scale.Scenario.IsDefault() {
		t.Errorf("scale carries scenario %v, want the default machine", r.Scale.Scenario)
	}
	fft := r.With(experiments.AppByName("FFT"))
	if fft.PaperSize != fft.App.BasicSize() || fft.Params.Size != fft.Scale.Params(fft.App, fft.PaperSize, "").Size {
		t.Errorf("With(FFT) kept Ocean's sizes: %+v", fft.Params)
	}
}

// TestResolveChecksVariant: a variant the application does not have fails
// naming the application and every variant it has, and each variant it
// has resolves into the parameters.
func TestResolveChecksVariant(t *testing.T) {
	_, err := parse(t, "-app", "Radix", "-variant", "smaple").Resolve()
	if err == nil {
		t.Fatal("unknown variant accepted")
	}
	for _, want := range []string{"-variant", "Radix", `"smaple"`, `"", "buffered", "sample"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	for _, v := range experiments.AppByName("Radix").Variants() {
		r, err := parse(t, "-app", "Radix", "-variant", v).Resolve()
		if err != nil {
			t.Errorf("variant %q: %v", v, err)
			continue
		}
		if r.Params.Variant != v {
			t.Errorf("variant %q resolved to %q", v, r.Params.Variant)
		}
	}
}
