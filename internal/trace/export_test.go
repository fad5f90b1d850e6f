package trace

// HeatPages reports how many pages the tracer's heat index covers. Only
// GrowPages changes it, and the index's slice header changes only with it.
func HeatPages(t *Tracer) int { return t.heat.Len() }
