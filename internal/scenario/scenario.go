// Package scenario turns the simulated machine into a declarative spec.
// A Spec names the interconnect topology, the directory's sharer
// representation and the latency preset; everywhere a machine is built
// (core.New, the experiment drivers, every cmd/ tool) consumes the spec
// instead of hard-coding the Origin shape. Specs are plain Go structs,
// JSON round-trippable, and content-hashed: the hash rides in checkpoint
// headers and bench snapshot rows so resumes refuse a different machine
// and comparisons never diff rows from different machines.
//
// The zero Spec — and the named scenario "origin" — normalizes to
// exactly the machine the simulator hard-coded before scenarios existed
// (hypercube+metarouter fabric, full-bit-vector directory, Origin2000
// Table-1 latencies), and core keeps that path bit-identical.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"origin2000/internal/directory"
	"origin2000/internal/topology"
)

// TopologySpec selects and parameterizes the interconnect.
type TopologySpec struct {
	// Kind is the topology.Network implementation: "origin" (default),
	// "mesh2d", "fattree" or "dragonfly".
	Kind string `json:"kind,omitempty"`
	// ForceMetarouters forces the origin fabric's metarouter organization
	// even at router counts a full hypercube could serve (§7.1).
	ForceMetarouters bool `json:"force_metarouters,omitempty"`
	// PodSize is the fat-tree pod size (0 = topology.DefaultPodSize).
	PodSize int `json:"pod_size,omitempty"`
	// GroupSize is the dragonfly group size (0 = topology.DefaultGroupSize).
	GroupSize int `json:"group_size,omitempty"`
}

// DirectorySpec selects and parameterizes the sharer representation.
type DirectorySpec struct {
	// Format is the directory.Format kind: "fullvec" (default),
	// "limited" or "coarse".
	Format string `json:"format,omitempty"`
	// Pointers is Dir_i_B's i for the limited format
	// (0 = directory.DefaultPointers).
	Pointers int `json:"pointers,omitempty"`
	// Region is the coarse format's processors-per-bit
	// (0 = directory.DefaultRegion).
	Region int `json:"region,omitempty"`
}

// Spec is the declarative machine description. The zero value is the
// default Origin2000 scenario.
type Spec struct {
	// Name labels the scenario in reports and snapshot rows; it does not
	// participate in the content hash.
	Name      string        `json:"name,omitempty"`
	Topology  TopologySpec  `json:"topology,omitempty"`
	Directory DirectorySpec `json:"directory,omitempty"`
	// Latency names a Table-1 latency preset: "origin2000" (default),
	// "exemplar-x", "numaliine", "hal-s1" or "numa-q". Resolution to
	// concrete constants happens in core, which owns the Latencies type.
	Latency string `json:"latency,omitempty"`
}

// LatencyPresets are the valid Spec.Latency names (the paper's Table 1).
var LatencyPresets = []string{"origin2000", "exemplar-x", "numaliine", "hal-s1", "numa-q"}

// Default returns the scenario describing the pre-scenario hard-coded
// machine.
func Default() Spec { return Spec{Name: "origin"}.Normalized() }

// Normalized returns the spec with every defaulted field made explicit,
// so that equivalent specs compare and hash equal.
func (s Spec) Normalized() Spec {
	if s.Topology.Kind == "" {
		s.Topology.Kind = "origin"
	}
	if s.Topology.Kind == "fattree" && s.Topology.PodSize == 0 {
		s.Topology.PodSize = topology.DefaultPodSize
	}
	if s.Topology.Kind == "dragonfly" && s.Topology.GroupSize == 0 {
		s.Topology.GroupSize = topology.DefaultGroupSize
	}
	if s.Directory.Format == "" {
		s.Directory.Format = "fullvec"
	}
	if s.Directory.Format == "limited" && s.Directory.Pointers == 0 {
		s.Directory.Pointers = directory.DefaultPointers
	}
	if s.Directory.Format == "coarse" && s.Directory.Region == 0 {
		s.Directory.Region = directory.DefaultRegion
	}
	if s.Latency == "" {
		s.Latency = "origin2000"
	}
	return s
}

// IsDefault reports whether the spec normalizes to the default scenario
// (same content hash, any name).
func (s Spec) IsDefault() bool { return s.Hash() == Default().Hash() }

// Validate checks the spec's kinds, parameters and — when procs > 0 —
// that the chosen directory format can represent the machine's processor
// count, returning an error naming the format's capacity when it cannot.
func (s Spec) Validate(procs int) error {
	n := s.Normalized()
	switch n.Topology.Kind {
	case "origin", "mesh2d", "fattree", "dragonfly":
	default:
		return fmt.Errorf("scenario %s: unknown topology kind %q (want origin, mesh2d, fattree or dragonfly)",
			n.label(), n.Topology.Kind)
	}
	if n.Topology.PodSize < 0 || n.Topology.GroupSize < 0 {
		return fmt.Errorf("scenario %s: negative topology parameter", n.label())
	}
	f, err := n.Format()
	if err != nil {
		return fmt.Errorf("scenario %s: %v", n.label(), err)
	}
	if n.Directory.Pointers < 0 || n.Directory.Region < 0 {
		return fmt.Errorf("scenario %s: negative directory parameter", n.label())
	}
	// A parameter its kind ignores builds the same machine but changes the
	// content hash, so resume would refuse a checkpoint of that machine.
	for _, p := range []struct {
		set         bool
		field, kind string
	}{
		{n.Topology.PodSize != 0 && n.Topology.Kind != "fattree", "topology.pod_size", "fattree"},
		{n.Topology.GroupSize != 0 && n.Topology.Kind != "dragonfly", "topology.group_size", "dragonfly"},
		{n.Topology.ForceMetarouters && n.Topology.Kind != "origin", "topology.force_metarouters", "origin"},
		{n.Directory.Pointers != 0 && n.Directory.Format != "limited", "directory.pointers", "limited"},
		{n.Directory.Region != 0 && n.Directory.Format != "coarse", "directory.region", "coarse"},
	} {
		if p.set {
			return fmt.Errorf("scenario %s: %s applies only to the %s kind", n.label(), p.field, p.kind)
		}
	}
	valid := false
	for _, p := range LatencyPresets {
		if n.Latency == p {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("scenario %s: unknown latency preset %q (want %s)",
			n.label(), n.Latency, strings.Join(LatencyPresets, ", "))
	}
	if procs > f.Capacity() {
		return fmt.Errorf("scenario %s: %d processors exceed the %s directory format's capacity of %d",
			n.label(), procs, f.Kind(), f.Capacity())
	}
	return nil
}

func (s Spec) label() string {
	if s.Name != "" {
		return fmt.Sprintf("%q", s.Name)
	}
	return "(unnamed)"
}

// Hash returns the spec's content hash: the first 12 hex digits of the
// SHA-256 of the normalized spec's canonical JSON, with the display name
// excluded. Two specs describing the same machine hash equal regardless
// of naming; checkpoint resume and bench row comparison key on it.
func (s Spec) Hash() string {
	n := s.Normalized()
	n.Name = ""
	b, err := json.Marshal(n)
	if err != nil { // a Spec of plain strings and ints cannot fail to marshal
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// Network builds the spec's interconnect over numRouters routers.
func (s Spec) Network(numRouters int) topology.Network {
	n := s.Normalized()
	switch n.Topology.Kind {
	case "mesh2d":
		return topology.NewMesh(numRouters)
	case "fattree":
		return topology.NewFatTree(numRouters, n.Topology.PodSize)
	case "dragonfly":
		return topology.NewDragonfly(numRouters, n.Topology.GroupSize)
	default:
		return topology.NewFabricModules(numRouters, n.Topology.ForceMetarouters)
	}
}

// Format builds the spec's directory sharer-representation format.
func (s Spec) Format() (directory.Format, error) {
	n := s.Normalized()
	param := 0
	switch n.Directory.Format {
	case "limited":
		param = n.Directory.Pointers
	case "coarse":
		param = n.Directory.Region
	}
	return directory.FormatByKind(n.Directory.Format, param)
}

// Describe returns a one-line human description of the machine the spec
// builds (topology and format shown at a representative router count).
func (s Spec) Describe() string {
	n := s.Normalized()
	f, err := n.Format()
	if err != nil {
		return fmt.Sprintf("invalid scenario: %v", err)
	}
	return fmt.Sprintf("topology %s, directory %s, latency %s",
		n.Topology.Kind, f.Describe(), n.Latency)
}

// named is the preset table. Keys are what -scenario accepts by name.
var named = map[string]Spec{
	// The default machine: everything the simulator hard-coded before
	// scenarios existed.
	"origin": {},
	// Machine-axis variants: one axis changed from the default.
	"origin-meta": {Topology: TopologySpec{Kind: "origin", ForceMetarouters: true}},
	"mesh":        {Topology: TopologySpec{Kind: "mesh2d"}},
	"fattree":     {Topology: TopologySpec{Kind: "fattree"}},
	"dragonfly":   {Topology: TopologySpec{Kind: "dragonfly"}},
	"limited":     {Directory: DirectorySpec{Format: "limited"}},
	"coarse":      {Directory: DirectorySpec{Format: "coarse"}},
	// A combined point for grid sweeps: cheap directory on a cheap fabric.
	"mesh-limited": {
		Topology:  TopologySpec{Kind: "mesh2d"},
		Directory: DirectorySpec{Format: "limited"},
	},
	// The paper's Table-1 machines as latency presets on the Origin shape.
	"exemplar-x": {Latency: "exemplar-x"},
	"numaliine":  {Latency: "numaliine"},
	"hal-s1":     {Latency: "hal-s1"},
	"numa-q":     {Latency: "numa-q"},
}

// Named returns the preset scenario with the given name.
func Named(name string) (Spec, bool) {
	s, ok := named[name]
	if !ok {
		return Spec{}, false
	}
	s.Name = name
	return s.Normalized(), true
}

// Names lists the preset scenario names in sorted order.
func Names() []string {
	out := make([]string, 0, len(named))
	for name := range named {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Load resolves a -scenario argument: a preset name, or a path to a JSON
// spec file (recognized by a ".json" suffix or a path separator). The
// returned spec is normalized and structurally validated; callers
// validate the processor count against it separately.
func Load(arg string) (Spec, error) {
	if arg == "" {
		return Default(), nil
	}
	if !strings.HasSuffix(arg, ".json") && !strings.ContainsAny(arg, "/\\") {
		s, ok := Named(arg)
		if !ok {
			return Spec{}, fmt.Errorf("unknown scenario %q (have %s; or pass a .json spec file)",
				arg, strings.Join(Names(), ", "))
		}
		return s, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %v", err)
	}
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario %s: %v", arg, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario %s: trailing data after the spec", arg)
	}
	if s.Name == "" {
		base := arg
		if i := strings.LastIndexAny(base, "/\\"); i >= 0 {
			base = base[i+1:]
		}
		s.Name = strings.TrimSuffix(base, ".json")
	}
	s = s.Normalized()
	if err := s.Validate(0); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", arg, err)
	}
	return s, nil
}
