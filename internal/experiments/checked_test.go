package experiments

import (
	"io"
	"testing"
)

func TestScaleCheckPropagatesToMachineConfig(t *testing.T) {
	s := Scale{Div: 64, CacheDiv: 64, Check: true}
	if cfg := s.Machine(4); !cfg.Check {
		t.Fatal("Scale.Check not propagated to core.Config")
	}
	if cfg := (Scale{Div: 64, CacheDiv: 64}).Machine(4); cfg.Check {
		t.Fatal("checker enabled without Scale.Check")
	}
}

// TestCheckedFigure2FindsNoViolations runs one reduced fig2 iteration with
// the online coherence checker attached to every machine — the CI smoke
// for "the checker is silent on the real workloads". A violation surfaces
// as a run error.
func TestCheckedFigure2FindsNoViolations(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("checked fig2 iteration takes ~10s")
	}
	s := TestScale
	s.Check = true
	se := NewSession(s)
	if err := Figure2(se, io.Discard); err != nil {
		t.Fatalf("checked fig2: %v", err)
	}
}
