package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"origin2000/internal/critpath"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
)

// ArtifactSchema identifies the run-artifact JSON format.
const ArtifactSchema = "origin-metrics/v1"

// ProcStat is one processor's final state in an artifact: the three-way
// breakdown plus the full event-counter set (whose stall/wait components
// sub-attribute the breakdown).
type ProcStat struct {
	Busy     sim.Time     `json:"busy"`
	Memory   sim.Time     `json:"memory"`
	Sync     sim.Time     `json:"sync"`
	Counters sim.Counters `json:"counters"`
}

// Total returns the processor's accounted time.
func (p ProcStat) Total() sim.Time { return p.Busy + p.Memory + p.Sync }

// PageHeat is one page's coherence heat in an artifact (trace-derived).
type PageHeat struct {
	Page         uint64   `json:"page"`
	LocalMisses  int64    `json:"local_misses"`
	RemoteMisses int64    `json:"remote_misses"`
	Upgrades     int64    `json:"upgrades"`
	Stall        sim.Time `json:"stall"`
	Migrations   int64    `json:"migrations"`
}

// SyncSite is one synchronization object's wait profile in an artifact.
type SyncSite struct {
	Label     string   `json:"label"`
	Waits     int64    `json:"waits"`
	Acquires  int64    `json:"acquires"`
	TotalWait sim.Time `json:"total_wait"`
}

// Artifact is one run's saved measurement state: enough to re-render the
// paper-style breakdowns and to serve as either side of origin diff without
// re-running the simulation.
type Artifact struct {
	Schema  string `json:"schema"`
	Label   string `json:"label"`
	App     string `json:"app"`
	Variant string `json:"variant,omitempty"`
	Procs   int    `json:"procs"`
	Size    int    `json:"size"`

	Elapsed sim.Time   `json:"elapsed"`
	PerProc []ProcStat `json:"per_proc"`

	// Interval and Machine are the sampler's virtual-time series (empty
	// when the run had metrics off).
	Interval sim.Time        `json:"interval,omitempty"`
	Machine  []MachineSample `json:"machine,omitempty"`
	// Epochs are the phase boundaries (barrier releases) the diff aligns.
	Epochs []sim.Time `json:"epochs,omitempty"`

	// Pages and Syncs are the trace-derived attribution tables (empty when
	// the run had tracing off).
	Pages []PageHeat `json:"pages,omitempty"`
	Syncs []SyncSite `json:"syncs,omitempty"`

	// CritPath is the critical-path record (nil when Config.CritPath was
	// off): per-epoch bounding arrivals, analyzable via metrics.CritPath.
	CritPath *critpath.Summary `json:"critpath,omitempty"`

	// Sharing is the sharing-classifier report (nil when Config.Sharing was
	// off): per-block pattern classification, true/false-sharing splits of
	// coherence misses, and home-imbalance attribution, rendered by
	// origin run -explain and diffed by origin diff.
	Sharing *sharing.Report `json:"sharing,omitempty"`
}

// CriticalProc returns the index of the processor with the largest
// accounted time — the parallel completion path — with ties going to the
// lowest id (-1 when PerProc is empty).
func (a *Artifact) CriticalProc() int {
	best := -1
	var bestT sim.Time
	for i := range a.PerProc {
		if t := a.PerProc[i].Total(); best < 0 || t > bestT {
			best, bestT = i, t
		}
	}
	return best
}

// WriteJSON writes the artifact as indented JSON.
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(a)
}

// WriteFile writes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadArtifact loads an artifact from path, validating the schema.
func ReadArtifact(path string) (Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return Artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	if a.Schema != ArtifactSchema {
		return Artifact{}, fmt.Errorf("%s: schema %q, want %q", path, a.Schema, ArtifactSchema)
	}
	return a, nil
}
