package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary spec files to Load. Load must either
// reject a file or return a spec that validates, whose JSON loads back to
// the same content hash, and whose network has the router count asked for
// with every route within its diameter. The seed corpus is every preset
// and every spec file under testdata.
func FuzzScenarioLoad(f *testing.F) {
	for _, name := range Names() {
		s, _ := Named(name)
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata specs (%v)", err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Load(path)
		if err != nil {
			return
		}
		if err := s.Validate(0); err != nil {
			t.Fatalf("Load returned a spec that does not validate: %v", err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again := filepath.Join(dir, "again.json")
		if err := os.WriteFile(again, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Load(again)
		if err != nil {
			t.Fatalf("the loaded spec's JSON %s does not load: %v", b, err)
		}
		if s2.Hash() != s.Hash() {
			t.Fatalf("the loaded spec's JSON %s hashes %s, the spec %s", b, s2.Hash(), s.Hash())
		}
		for _, r := range []int{1, 2, 16, 64} {
			n := s.Network(r)
			if n.NumRouters() != r {
				t.Fatalf("%s: Network(%d) has %d routers", n.Describe(), r, n.NumRouters())
			}
			for a := 0; a < r; a++ {
				for c := 0; c < r; c++ {
					if h := n.Route(a, c).Hops; h < 0 || h > n.MaxHops() {
						t.Fatalf("%s over %d routers: route %d->%d takes %d hops, diameter %d",
							n.Describe(), r, a, c, h, n.MaxHops())
					}
				}
			}
		}
	})
}
