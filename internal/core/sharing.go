package core

import "origin2000/internal/sharing"

// Sharing-classifier glue: the machine owns an optional *sharing.Observer
// (built when Config.Sharing.Enabled) and every observation site in the
// access path is gated on it with a nil check, exactly like the online
// checker. The observer only reads the access stream — it never touches
// virtual clocks — so enabling it perturbs simulated time by zero. Like the
// checker and the metrics sampler it forces one host worker (see
// EffectiveWorkers): it captures events into one log whose order must match
// the coherence-event order, and the schedule is identical at any worker
// count, so the forced run is still the run.

// The classifier's word footprint must tile a coherence block exactly.
var _ [sharing.WordsPerBlock * sharing.WordBytes]byte = [BlockBytes]byte{}

// SharingObserver exposes the sharing classifier (nil unless
// Config.Sharing.Enabled).
func (m *Machine) SharingObserver() *sharing.Observer { return m.sharing }

// SharingReport folds the classifier's state into a report with the top n
// blocks and pages per table (nil when sharing is off). Reporting first
// folds the captured event log, so repeated or interleaved calls are
// deterministic: each sees every event recorded before it.
func (m *Machine) SharingReport(top int) *sharing.Report {
	if m.sharing == nil {
		return nil
	}
	return m.sharing.Report(top)
}
