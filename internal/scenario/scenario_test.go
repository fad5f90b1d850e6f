package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"origin2000/internal/directory"
)

// TestDefaultDescribesHardCodedMachine: the zero Spec and the "origin"
// preset must both normalize to the pre-scenario machine and hash equal.
func TestDefaultDescribesHardCodedMachine(t *testing.T) {
	d := Default()
	if d.Topology.Kind != "origin" || d.Directory.Format != "fullvec" || d.Latency != "origin2000" {
		t.Fatalf("Default() = %+v", d)
	}
	var zero Spec
	if zero.Hash() != d.Hash() {
		t.Fatalf("zero Spec hash %s != Default hash %s", zero.Hash(), d.Hash())
	}
	preset, ok := Named("origin")
	if !ok || preset.Hash() != d.Hash() {
		t.Fatalf("origin preset hash %s != Default hash %s", preset.Hash(), d.Hash())
	}
	if !zero.IsDefault() || !preset.IsDefault() {
		t.Fatal("IsDefault() false for the default machine")
	}
}

// TestHashIgnoresNameAndSeparatesMachines: the content hash must ignore
// the display name and change with every machine-defining axis.
func TestHashIgnoresNameAndSeparatesMachines(t *testing.T) {
	base := Default()
	renamed := base
	renamed.Name = "something-else"
	if base.Hash() != renamed.Hash() {
		t.Fatal("renaming a scenario changed its hash")
	}
	seen := map[string]string{base.Hash(): "origin"}
	for _, name := range Names() {
		s, _ := Named(name)
		h := s.Hash()
		if prev, dup := seen[h]; dup && prev != "origin" || (dup && name != "origin") {
			t.Fatalf("presets %s and %s share hash %s", prev, name, h)
		}
		seen[h] = name
	}
}

// TestJSONRoundTrip: marshal → unmarshal must preserve every spec field
// and the content hash.
func TestJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		s, _ := Named(name)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Fatalf("%s: round trip %+v != %+v", name, back, s)
		}
		if back.Hash() != s.Hash() {
			t.Fatalf("%s: round trip changed hash", name)
		}
	}
}

// TestNamedPresetsValidate: every preset must validate at the paper's
// processor counts and build a working network and format.
func TestNamedPresetsValidate(t *testing.T) {
	for _, name := range Names() {
		s, ok := Named(name)
		if !ok {
			t.Fatalf("Named(%q) missing", name)
		}
		for _, procs := range []int{1, 32, 128} {
			if err := s.Validate(procs); err != nil {
				t.Fatalf("%s at %dp: %v", name, procs, err)
			}
		}
		n := s.Network(32)
		if n.NumRouters() != 32 {
			t.Fatalf("%s: network has %d routers", name, n.NumRouters())
		}
		if _, err := s.Format(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Describe() == "" || strings.Contains(s.Describe(), "invalid") {
			t.Fatalf("%s: Describe() = %q", name, s.Describe())
		}
	}
}

// TestValidateRejectsOverCapacity: the capacity error must name the
// format and its ceiling (the silent Sharers overflow, made loud).
func TestValidateRejectsOverCapacity(t *testing.T) {
	for _, name := range []string{"origin", "limited", "coarse"} {
		s, _ := Named(name)
		err := s.Validate(directory.MaxProcs + 1)
		if err == nil {
			t.Fatalf("%s: %d processors accepted", name, directory.MaxProcs+1)
		}
		if !strings.Contains(err.Error(), "capacity of 128") {
			t.Fatalf("%s: error does not name the capacity: %v", name, err)
		}
	}
	if err := Default().Validate(directory.MaxProcs); err != nil {
		t.Fatalf("%d processors rejected: %v", directory.MaxProcs, err)
	}
}

func TestValidateRejectsUnknownKinds(t *testing.T) {
	bad := Spec{Topology: TopologySpec{Kind: "torus9d"}}
	if err := bad.Validate(32); err == nil || !strings.Contains(err.Error(), "torus9d") {
		t.Fatalf("unknown topology: %v", err)
	}
	bad = Spec{Directory: DirectorySpec{Format: "sparse"}}
	if err := bad.Validate(32); err == nil || !strings.Contains(err.Error(), "sparse") {
		t.Fatalf("unknown format: %v", err)
	}
	bad = Spec{Latency: "cray-t3e"}
	if err := bad.Validate(32); err == nil || !strings.Contains(err.Error(), "cray-t3e") {
		t.Fatalf("unknown latency preset: %v", err)
	}
}

// TestValidateBoundsParameters: every size parameter must lie in
// [0, directory.MaxProcs], and the error names the field. An unbounded
// dragonfly group size once overflowed the group count to 0.
func TestValidateBoundsParameters(t *testing.T) {
	cases := []struct {
		field string
		spec  func(v int) Spec
	}{
		{"topology.pod_size", func(v int) Spec { return Spec{Topology: TopologySpec{Kind: "fattree", PodSize: v}} }},
		{"topology.group_size", func(v int) Spec { return Spec{Topology: TopologySpec{Kind: "dragonfly", GroupSize: v}} }},
		{"directory.pointers", func(v int) Spec { return Spec{Directory: DirectorySpec{Format: "limited", Pointers: v}} }},
		{"directory.region", func(v int) Spec { return Spec{Directory: DirectorySpec{Format: "coarse", Region: v}} }},
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			if err := c.spec(directory.MaxProcs).Validate(32); err != nil {
				t.Fatalf("%s = %d rejected: %v", c.field, directory.MaxProcs, err)
			}
			for _, v := range []int{-1, directory.MaxProcs + 1, math.MaxInt} {
				err := c.spec(v).Validate(32)
				if err == nil || !strings.Contains(err.Error(), c.field) {
					t.Errorf("%s = %d: error %v does not name the field", c.field, v, err)
				}
			}
		})
	}
}

// TestLoad: names resolve to presets, .json paths load spec files, and
// unknown names fail listing the presets.
func TestLoad(t *testing.T) {
	s, err := Load("mesh")
	if err != nil || s.Topology.Kind != "mesh2d" {
		t.Fatalf("Load(mesh) = %+v, %v", s, err)
	}
	if s, err = Load(""); err != nil || !s.IsDefault() {
		t.Fatalf("Load(\"\") = %+v, %v", s, err)
	}
	if _, err = Load("nonesuch"); err == nil || !strings.Contains(err.Error(), "mesh") {
		t.Fatalf("unknown name error should list presets: %v", err)
	}
	for _, file := range []struct {
		path           string
		kind, format   string
		wantDefaulting bool
	}{
		{"mesh-coarse.json", "mesh2d", "coarse", false},
		{"fattree-dir8b.json", "fattree", "limited", false},
		{"table1-numaliine.json", "origin", "fullvec", true},
	} {
		s, err := Load(filepath.Join("testdata", file.path))
		if err != nil {
			t.Fatalf("%s: %v", file.path, err)
		}
		if s.Topology.Kind != file.kind || s.Directory.Format != file.format {
			t.Fatalf("%s: loaded %+v", file.path, s)
		}
		if s.Name == "" {
			t.Fatalf("%s: no name", file.path)
		}
	}
	if s, err = Load(filepath.Join("testdata", "table1-numaliine.json")); err != nil || s.Latency != "numaliine" {
		t.Fatalf("table1 file: %+v, %v", s, err)
	}
}

// TestLoadRejectsUnknownFields: a typo in a spec file, anything after the
// spec, or a parameter the chosen kind ignores must fail loudly rather than
// silently building a machine from part of the file. An ignored parameter's
// error names the field.
func TestLoadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	for name, c := range map[string]struct{ body, field string }{
		"typo.json":        {body: `{"topolgy": {"kind": "mesh2d"}}`},
		"second.json":      {body: `{"name":"m1","topology":{"kind":"mesh2d"}} {"topology":{"kind":"bogus"}}`},
		"garbage.json":     {body: `{"name":"m1","topology":{"kind":"mesh2d"}} garbage!!`},
		"mesh-pods.json":   {`{"topology":{"kind":"mesh2d","pod_size":5}}`, "pod_size"},
		"tree-groups.json": {`{"topology":{"kind":"fattree","group_size":4}}`, "group_size"},
		"mesh-meta.json":   {`{"topology":{"kind":"mesh2d","force_metarouters":true}}`, "force_metarouters"},
		"full-ptrs.json":   {`{"directory":{"pointers":3}}`, "pointers"},
		"ltd-region.json":  {`{"directory":{"format":"limited","region":8}}`, "region"},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the file", err)
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("error %q does not name the field %s", err, c.field)
			}
		})
	}
}
