package search

import "gcs/internal/obs"

// Metrics is the search layer's instrument set: campaign-level counters a
// Campaign advances as it absorbs evaluated generations. One Metrics value
// may span many campaigns; the counters are cumulative across them.
type Metrics struct {
	// Generations counts merged generations (Absorb calls that covered a
	// pending generation).
	Generations *obs.Counter
	// Candidates counts candidate evaluations absorbed.
	Candidates *obs.Counter
	// EngineSteps counts engine events actually dispatched by absorbed
	// ranges (trunk replays included) — it reconciles exactly with
	// Result.EngineSteps summed over the campaigns feeding this Metrics.
	EngineSteps *obs.Counter
	// CandidateSteps counts what the same evaluations would have dispatched
	// re-simulated from scratch — reconciles with Result.CandidateSteps.
	CandidateSteps *obs.Counter
	// PrefixSavedSteps counts the engine events prefix caching saved:
	// CandidateSteps − EngineSteps, accumulated per absorbed range.
	PrefixSavedSteps *obs.Counter
}

// NewMetrics registers the search instrument set in r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Generations:      r.Counter("gcs_search_generations_total"),
		Candidates:       r.Counter("gcs_search_candidates_total"),
		EngineSteps:      r.Counter("gcs_search_engine_steps_total"),
		CandidateSteps:   r.Counter("gcs_search_candidate_steps_total"),
		PrefixSavedSteps: r.Counter("gcs_search_prefix_saved_steps_total"),
	}
}

// absorbShard advances the step counters for one absorbed range that
// dispatched `dispatched` engine events against `full` from-scratch ones.
func (m *Metrics) absorbShard(dispatched, full uint64) {
	if m == nil {
		return
	}
	m.EngineSteps.Add(dispatched)
	m.CandidateSteps.Add(full)
	if full > dispatched {
		m.PrefixSavedSteps.Add(full - dispatched)
	}
}
