package experiments

import (
	"origin2000/internal/core"
	"origin2000/internal/metrics"
	"origin2000/internal/workload"
)

// artifactTopN bounds the page and sync tables saved in a run artifact.
const artifactTopN = 64

// BuildArtifact snapshots a finished run as a metrics.Artifact: the final
// per-processor state always, the sampler's series when metrics were on, and
// the trace-derived page/sync attribution tables when tracing was on. The
// machine is typically captured through Scale.OnMachine, which sees it even
// for failed runs.
func BuildArtifact(label string, app workload.App, params workload.Params, m *core.Machine) metrics.Artifact {
	a := metrics.Artifact{
		Schema:  metrics.ArtifactSchema,
		Label:   label,
		App:     app.Name(),
		Variant: params.Variant,
		Procs:   m.NumProcs(),
		Size:    params.Size,
		Elapsed: m.Elapsed(),
		PerProc: make([]metrics.ProcStat, m.NumProcs()),
	}
	for i := range a.PerProc {
		p := m.Proc(i)
		busy, memory, sync := p.Breakdown()
		a.PerProc[i] = metrics.ProcStat{
			Busy: busy, Memory: memory, Sync: sync,
			Counters: *p.Stats(),
		}
	}
	if s := m.Sampler(); s != nil {
		a.Interval = s.Interval()
		a.Machine = s.MachineSeries()
		a.Epochs = s.Epochs()
	}
	a.CritPath = m.CritPath()
	a.Sharing = m.SharingReport(artifactTopN)
	if tr := m.Tracer(); tr != nil {
		for _, h := range tr.TopPages(artifactTopN) {
			a.Pages = append(a.Pages, metrics.PageHeat{
				Page:         h.Key,
				LocalMisses:  h.LocalMisses,
				RemoteMisses: h.RemoteMisses(),
				Upgrades:     h.Upgrades,
				Stall:        h.Stall,
				Migrations:   h.Migrations,
			})
		}
		if len(a.Epochs) == 0 {
			a.Epochs = tr.Epochs()
		}
		for _, s := range tr.TopSync(artifactTopN) {
			a.Syncs = append(a.Syncs, metrics.SyncSite{
				Label:     s.Label,
				Waits:     s.Waits,
				Acquires:  s.Acquires,
				TotalWait: s.TotalWait,
			})
		}
	}
	return a
}
