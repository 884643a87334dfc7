package optimizer

import (
	"sync"

	"repro/internal/cost"
	"repro/internal/plan"
)

// Shared wraps an Optimizer for concurrent use: the underlying DP scratch
// tables are reused across calls and guarded by a mutex, so a Session can
// hold one Shared for its whole lifetime instead of rebuilding an optimizer
// per oracle call.
type Shared struct {
	mu  sync.Mutex
	opt *Optimizer
}

// NewShared builds a concurrent optimizer for the model's query.
func NewShared(m *cost.Model) (*Shared, error) {
	o, err := New(m)
	if err != nil {
		return nil, err
	}
	return &Shared{opt: o}, nil
}

// Optimize returns the optimal plan and cost at the location. Safe for
// concurrent use.
func (s *Shared) Optimize(at cost.Location) (*plan.Plan, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opt.Optimize(at)
}
