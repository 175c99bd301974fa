package plan

import (
	"context"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/refsem"
	"disjunct/internal/session"
)

// The brute procedure answers a query by explicit refsem model-set
// construction — 2ⁿ enumeration of interpretations straight from the
// paper's definitions, no oracle, no search. On tiny instances that is
// microseconds of pure CPU, cheaper than a single SAT call; it polls no
// budget, which is safe only because 2ⁿ is bounded by the atom cap.
// The dispatch collapses the registry's alias/partition pairs onto the
// reference constructions that the serve layer's default (nil
// partition = full minimisation) makes equivalent: CCWA with P = all
// atoms is GCWA; ECWA and CIRC collapse onto EGCWA's minimal models;
// WGCWA shares DDR's model set. CWA has no reference construction,
// PDSM enumerates partial models (a different answer shape), and
// ICWA's stratifiability is dynamic. PWS and PMS are left out too:
// refsem.PWS enumerates split programs, ∏(2^|head|−1) of them, which
// the atom cap does not bound (up to 1.1·10⁹ on 8-atom instances). All
// of these take the fresh path.
var bruteRefs = map[string]func(*db.DB) []logic.Interp{
	"GCWA":  refsem.GCWA,
	"CCWA":  refsem.GCWA,
	"EGCWA": refsem.EGCWA,
	"ECWA":  refsem.EGCWA,
	"CIRC":  refsem.EGCWA,
	"DDR":   refsem.DDR,
	"WGCWA": refsem.DDR,
	"DSM":   refsem.DSM,
	"PERF":  refsem.PERF,
}

// bruteHardCap bounds the instance size regardless of configuration:
// 2¹⁶ interpretations is the most the "tiny instance" claim tolerates.
const bruteHardCap = 16

// BruteEligible reports whether the brute procedure can answer sem on
// comp within the configured atom bound: a reference construction
// exists and the semantics is applicable to the database's syntactic
// features (an inapplicable pair must surface the fresh path's typed
// ErrUnsupported, not a brute verdict).
func BruteEligible(comp *session.Compiled, sem string, maxAtoms int) bool {
	if maxAtoms > bruteHardCap {
		maxAtoms = bruteHardCap
	}
	if comp.N > maxAtoms {
		return false
	}
	if bruteRefs[sem] == nil {
		return false
	}
	info, ok := core.InfoFor(sem)
	return ok && info.Applicable(comp.HasNeg, comp.HasIC)
}

// Brute answers one query by reference model-set construction. ok is
// false when the pair is ineligible or the context is already done —
// the caller falls back to the fresh path. A brute answer is always
// definite: no oracle and no faults. It does not poll ctx once
// started; BruteEligible's atom cap is what bounds its run time.
func Brute(ctx context.Context, comp *session.Compiled, sem string, kind session.Kind, lit logic.Lit, f *logic.Formula, maxAtoms int) (holds, ok bool) {
	if !BruteEligible(comp, sem, maxAtoms) {
		return false, false
	}
	if ctx != nil && ctx.Err() != nil {
		return false, false
	}
	set := bruteRefs[sem](comp.D)
	switch kind {
	case session.KindModel:
		return len(set) > 0, true
	case session.KindLiteral:
		return refsem.Entails(set, logic.LitF(lit)), true
	case session.KindFormula:
		return refsem.Entails(set, f), true
	}
	return false, false
}
