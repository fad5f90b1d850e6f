package main

import (
	"errors"
	"strings"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/experiments"
	"origin2000/internal/metrics"
	"origin2000/internal/workload"
)

// TestDiffExactAttribution is the PR's acceptance criterion for origin-diff:
// comparing a first-touch FFT run against a round-robin one must produce a
// component breakdown whose total equals the measured virtual-time delta
// exactly — not approximately.
func TestDiffExactAttribution(t *testing.T) {
	base := runBase{appName: "FFT", procs: 8, scale: 64, seed: 42}
	a, err := runSpec("placement=ft", base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSpec("placement=rr", base)
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.Diff(a, b)
	if r.Delta == 0 {
		t.Fatal("first-touch and round-robin runs have identical elapsed time; the comparison is vacuous")
	}
	if got := r.ComponentTotal(); got != r.Delta {
		t.Errorf("ComponentTotal() = %d, want exactly Delta = %d", got, r.Delta)
	}
	if len(r.Epochs) == 0 {
		t.Errorf("no aligned epochs (note: %q); FFT runs the same barrier structure under both placements", r.EpochNote)
	}
	if len(r.Pages) == 0 || len(r.Syncs) == 0 {
		t.Errorf("attribution tables empty: pages=%d syncs=%d", len(r.Pages), len(r.Syncs))
	}
	// Round-robin on FFT costs time through remote misses; the memory
	// component should carry most of the delta.
	var mem metrics.Component
	for _, c := range r.Components {
		if c.Name == "memory stall" {
			mem = c
		}
	}
	if r.Delta > 0 && mem.Delta <= 0 {
		t.Errorf("expected the delta to be memory-driven, got components %+v", r.Components)
	}
}

// TestApplySpecRejectsUnknownKeys pins spec parsing errors.
func TestApplySpecRejectsUnknownKeys(t *testing.T) {
	base := runBase{appName: "FFT", procs: 4, scale: 64, seed: 42}
	if _, err := runSpec("bogus=1", base); err == nil {
		t.Error("unknown spec key accepted")
	}
	if _, err := runSpec("placement=diagonal", base); err == nil {
		t.Error("bad placement value accepted")
	}
	_, err := runSpec("variant=smaple", base)
	if !errors.As(err, new(specError)) {
		t.Fatalf("unknown variant: err = %v, want a spec error", err)
	}
	for _, want := range []string{"variant=", "FFT", `"smaple"`, `"", "offnode", "implicit"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// Values a run cannot use fail as spec errors naming their key, before
	// anything runs: procs and ppn below 1, a negative migration
	// threshold, and a machine the scenario's directory cannot hold.
	for spec, want := range map[string]string{
		"procs=0":    "procs=0",
		"procs=-2":   "procs=-2",
		"ppn=0":      "ppn=0",
		"ppn=-3":     "ppn=-3",
		"migrate=-5": "migrate=-5",
		"procs=300":  "procs=300: ",
	} {
		_, err := runSpec(spec, base)
		if !errors.As(err, new(specError)) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a spec error naming %q", spec, err, want)
		}
	}
	var params workload.Params
	var cfg core.Config
	if err := applySpec("variant=offnode", experiments.AppByName("FFT"), &cfg, &params); err != nil || params.Variant != "offnode" {
		t.Errorf("variant=offnode: err = %v, variant %q", err, params.Variant)
	}
}
