package metrics

import "origin2000/internal/sim"

// Snap is the sampler's full serializable state: the recorded series, the
// epoch marks, and the grid cursors. A resumed run rebuilds it by replaying
// the prefix, and the resume proof compares its digest.
type Snap struct {
	ProcNext []sim.Time      `json:"proc_next"`
	MachNext sim.Time        `json:"mach_next"`
	PerProc  [][]ProcSample  `json:"per_proc"`
	Machine  []MachineSample `json:"machine"`
	Epochs   []sim.Time      `json:"epochs,omitempty"`
}

// Snap captures the sampler's state. The cursors and the outer series
// slice are copied, because recording rewrites them in place; every series
// is append-only, so the copied slice headers keep the snap frozen at
// capture however long the sampler runs on.
func (s *Sampler) Snap() Snap {
	return Snap{
		ProcNext: append([]sim.Time(nil), s.procNext...),
		MachNext: s.machNext,
		PerProc:  append([][]ProcSample(nil), s.perProc...),
		Machine:  s.machine,
		Epochs:   s.epochs,
	}
}
