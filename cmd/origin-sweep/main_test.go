package main

import (
	"reflect"
	"testing"

	"origin2000/internal/experiments"
	"origin2000/internal/scenario"
)

// TestSeriesMatchFigure4 checks that origin-sweep plots Figure 4's points.
// At Div 64, Scale.Size maps all four of Protein's sweep sizes to 12, so a
// sweep that scaled its sizes that way would repeat one point.
func TestSeriesMatchFigure4(t *testing.T) {
	app := experiments.AppByName("Protein")
	got, err := sweep(app, []int{4, 8}, []string{""}, []scenario.Spec{scenario.Default()}, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	se := experiments.NewSession(experiments.Scale{Div: 64, CacheDiv: 64, Seed: 42, Procs: []int{4, 8}})
	want, err := experiments.Figure4Panel(se, app)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("Figure 4's Protein panel has %d curves, want 2", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("origin-sweep's series\n%+v\nwant Figure 4's\n%+v", got, want)
	}
}
