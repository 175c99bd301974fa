// Package plan is the cost classifier behind cost-aware admission: it
// maps each incoming query onto a cost class before admission — from
// the semantics' complexity cells (core.Info.Cells) and the fragment
// classifier's fast paths — and keeps a per-(fingerprint, semantics)
// cost model calibrated online from the oracle/conflict/wall-clock
// counters every completed query produces. The serve layer's admission
// control reads both so overload sheds expensive (Σ₂ᵖ-class, cold or
// high-estimate) queries first instead of FIFO. The planner does not
// route: the session layer answers what its fast paths and warm
// engines can, and everything else takes the fresh path.
package plan

import (
	"sync/atomic"

	"disjunct/internal/core"
	"disjunct/internal/session"
	"disjunct/internal/store"
)

// Class is the planner's cost tier for one (query kind, semantics,
// fragment) combination — the machine-readable complexity cells
// collapsed onto the three levels that matter for shedding.
type Class int

const (
	// ClassPoly: answered in polynomial time — a fragment fast path
	// applies, or the general-fragment cell is P.
	ClassPoly Class = iota
	// ClassNP: one NP-oracle level (NP or coNP cell).
	ClassNP
	// ClassSigma2: second level of the polynomial hierarchy (Σᵖ₂/Πᵖ₂
	// cell) — the shed-first tier under overload.
	ClassSigma2
)

// String returns the wire name used in /healthz and bench reports.
func (c Class) String() string {
	switch c {
	case ClassPoly:
		return "poly"
	case ClassNP:
		return "np"
	default:
		return "sigma2"
	}
}

// Decision is the planner's verdict for one query, computed before
// admission: the cost class and the estimate it was based on, if one
// existed.
type Decision struct {
	Class   Class
	HaveEst bool  // a calibrated estimate existed for (fingerprint, semantics)
	EstNP   int64 // mean NP calls per query, when HaveEst
}

const (
	// expensiveNP is the mean-NP-calls estimate above which a Σ₂ᵖ-class
	// key stays in the expensive tier once calibrated.
	expensiveNP = 8
	// shedOccupancy is the queue-occupancy fraction above which
	// cost-aware shedding engages; below it the planner never sheds.
	shedOccupancy = 0.5
)

// Config configures the planner.
type Config struct {
	// Store, when set, seeds the estimator at construction and
	// receives a write-behind snapshot after every observation so
	// estimates survive restarts.
	Store *store.Store
}

// Planner holds the cost model and decision counters for one server.
type Planner struct {
	est *Estimator

	decisions atomic.Int64
	estServed atomic.Int64
	shedCost  atomic.Int64
}

// New builds a planner, seeding its estimator from cfg.Store when one
// is configured.
func New(cfg Config) *Planner {
	p := &Planner{est: newEstimator(cfg.Store)}
	if cfg.Store != nil {
		p.est.seed(cfg.Store.Estimates())
	}
	return p
}

// ClassOf maps a query onto its cost tier: the fragment fast path
// collapses everything it answers to polynomial; otherwise the
// semantics' complexity cell for the query kind decides, degrading to
// Σ₂ᵖ (worst case) for unknown semantics or unpopulated cells.
func ClassOf(comp *session.Compiled, sem string, kind session.Kind) Class {
	if session.FastEligible(comp, sem, kind) {
		return ClassPoly
	}
	info, ok := core.InfoFor(sem)
	if !ok {
		return ClassSigma2
	}
	switch info.Cell(kind.String()) {
	case core.CellP:
		return ClassPoly
	case core.CellNP, core.CellCoNP:
		return ClassNP
	default:
		return ClassSigma2
	}
}

// Decide classifies one query and attaches the calibrated estimate for
// its (fingerprint, semantics) key, if one exists.
func (p *Planner) Decide(comp *session.Compiled, sem string, kind session.Kind) Decision {
	p.decisions.Add(1)
	d := Decision{Class: ClassOf(comp, sem, kind)}
	if e, ok := p.est.estimate(comp.Raw, sem); ok {
		d.HaveEst, d.EstNP = true, e.meanNP()
		p.estServed.Add(1)
	}
	return d
}

// ShouldShed reports whether a query should be cost-shed given the
// admission queue's current occupancy (queued of bound). Below the
// occupancy threshold nothing sheds — cost-aware admission only
// changes behavior under overload. Above it, the expensive tier goes
// first. The caller records the planner's shed count via CountShed
// when it acts on a true return.
func (p *Planner) ShouldShed(d Decision, queued, bound int) bool {
	if bound <= 0 || float64(queued) < shedOccupancy*float64(bound) {
		return false
	}
	return p.Expensive(d)
}

// Expensive reports whether a decision falls in the expensive tier:
// Σ₂ᵖ-class work that is cold or whose estimate exceeds expensiveNP.
// This is the tier ShouldShed sheds under queue pressure and the tier
// the admission layer's bulkhead caps concurrently — an expensive
// query holds an execution slot for seconds, so letting the tier take
// every slot starves the microsecond traffic behind it.
func (p *Planner) Expensive(d Decision) bool {
	return d.Class == ClassSigma2 && (!d.HaveEst || d.EstNP > expensiveNP)
}

// CountShed records one cost shed acted upon by the admission layer.
func (p *Planner) CountShed() { p.shedCost.Add(1) }

// Observe folds one completed query's measured cost into the sums for
// its (fingerprint, semantics) key and write-behinds the snapshot to
// the store when one is configured.
func (p *Planner) Observe(raw, sem string, c Cost) { p.est.observe(raw, sem, c) }

// Export snapshots the estimator for handoff/join slices.
func (p *Planner) Export() []store.Estimate { return p.est.export() }

// Import merges shipped estimates (max-observation-count wins, so
// repeated imports are idempotent) and returns how many were accepted.
func (p *Planner) Import(list []store.Estimate) int { return p.est.merge(list) }

// Stats is the /healthz planner section.
func (p *Planner) Stats() map[string]int64 {
	return map[string]int64{
		"decisions":        p.decisions.Load(),
		"estimates_served": p.estServed.Load(),
		"estimate_entries": int64(p.est.len()),
		"observations":     p.est.observations.Load(),
		"shed_cost":        p.shedCost.Load(),
	}
}
