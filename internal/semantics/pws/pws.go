// Package pws implements Chan's Possible Worlds Semantics (§3.2),
// equivalent to Sakama's Possible Models Semantics (PMS).
//
// A split program of DB chooses, for every non-integrity clause, a
// nonempty subset of its head atoms, yielding a definite program
// (heads of size one after splitting: each chosen atom gets the
// clause's body). A possible model of DB is the least model of some
// split program; integrity clauses filter the candidates. PWS
// inference is truth in every possible model.
//
// Complexity shape: negative-literal inference on positive DDBs
// without integrity clauses is polynomial (Chan; zero oracle calls:
// x is false in all possible models iff x is outside the all-heads
// least fixpoint); with integrity clauses literal inference is
// coNP-complete and formula inference coNP-complete in both regimes.
//
// The implementation enumerates split programs per clause-choice
// (exponential in the number of genuinely disjunctive clauses) for the
// general operations, with the polynomial fast path for the tractable
// cell. The possible-model count is also bounded by deduplication, so
// enumeration is feasible for the benchmark sizes; the coNP cells'
// scaling shows on the reduction families.
package pws

import (
	"disjunct/internal/bitset"
	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/fixpoint"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
)

func init() {
	core.Register("PWS", func(opts core.Options) core.Semantics {
		return New(opts)
	})
	core.Register("PMS", func(opts core.Options) core.Semantics {
		s := New(opts)
		s.name = "PMS"
		return s
	})
	pwsCell := "negative literal in P (no IC) / coNP with IC; formula coNP-complete; existence NP"
	pwsCells := core.Cells{Literal: core.CellCoNP, Formula: core.CellCoNP, Existence: core.CellNP}
	core.Describe(core.Info{Name: "PWS", Complexity: pwsCell, Cells: pwsCells, NoNegation: true})
	core.Describe(core.Info{Name: "PMS", Complexity: pwsCell, Cells: pwsCells, NoNegation: true})
}

// Sem is the PWS ≡ PMS semantics.
type Sem struct {
	opts core.Options
	name string
}

// New returns a PWS instance.
func New(opts core.Options) *Sem {
	opts.OracleFor()
	return &Sem{opts: opts, name: "PWS"}
}

// Name returns "PWS" (or "PMS").
func (s *Sem) Name() string { return s.name }

// Oracle exposes the instrumented oracle.
func (s *Sem) Oracle() *oracle.NP { return s.opts.Oracle }

func (s *Sem) check(d *db.DB) error {
	if d.HasNegation() {
		return core.ErrUnsupported
	}
	return nil
}

// splitPollEvery is how many split programs the enumeration builds
// between polls of the oracle's budget. The split count is the product
// of 2^|head|−1 over the disjunctive clauses and issues no oracle call,
// so without the poll a deadline or cancellation could never stop it.
const splitPollEvery = 256

// PossibleModels enumerates the distinct possible models of d
// satisfying its integrity clauses. limit ≤ 0 means unlimited. The
// enumeration polls the oracle's attached budget every splitPollEvery
// split programs and returns its typed cause (deadline, cancellation)
// with the count of models yielded so far.
func (s *Sem) PossibleModels(d *db.DB, limit int, yield func(logic.Interp) bool) (count int, err error) {
	defer budget.Recover(&err)
	if err := s.check(d); err != nil {
		return 0, err
	}
	b := s.opts.Oracle.Budget()
	// Separate genuinely disjunctive clauses from definite ones and
	// integrity clauses.
	var definite []db.Clause
	var disjunctive []db.Clause
	var integrity []db.Clause
	for _, c := range d.Clauses {
		switch {
		case c.IsIntegrity():
			integrity = append(integrity, c)
		case len(c.Head) == 1:
			definite = append(definite, c)
		default:
			disjunctive = append(disjunctive, c)
		}
	}

	seen := make(map[string]bool)
	stopped := false

	// Enumerate nonempty head subsets per disjunctive clause.
	choice := make([]uint64, len(disjunctive))
	for i := range choice {
		choice[i] = 1 // nonempty subsets encoded as bitmask ≥ 1
	}
	split := db.NewWithVocab(d.Voc)
	for splits := 1; ; splits++ {
		if splits%splitPollEvery == 0 {
			if err := b.Err(); err != nil {
				budget.Trip(err)
			}
		}
		// Build the split program: definite clauses + chosen heads.
		split.Clauses = split.Clauses[:0]
		split.Clauses = append(split.Clauses, definite...)
		for i, c := range disjunctive {
			mask := choice[i]
			for b := 0; b < len(c.Head); b++ {
				if mask&(1<<uint(b)) != 0 {
					split.Clauses = append(split.Clauses, db.Clause{
						Head:    []logic.Atom{c.Head[b]},
						PosBody: c.PosBody,
					})
				}
			}
		}
		m := fixpoint.LeastModel(split)
		key := m.Key()
		if !seen[key] {
			seen[key] = true
			if satisfiesIntegrity(m, integrity) {
				count++
				if !yield(m) || (limit > 0 && count >= limit) {
					stopped = true
				}
			}
		}
		if stopped {
			return count, nil
		}
		// Advance the choice vector (odometer over nonempty subsets).
		i := 0
		for ; i < len(disjunctive); i++ {
			choice[i]++
			if choice[i] < 1<<uint(len(disjunctive[i].Head)) {
				break
			}
			choice[i] = 1
		}
		if i == len(disjunctive) {
			return count, nil
		}
	}
}

func satisfiesIntegrity(m logic.Interp, integrity []db.Clause) bool {
	for _, c := range integrity {
		if !c.Sat(m) {
			return false
		}
	}
	return true
}

// InferLiteral decides PWS(DB) ⊨ l. Fast path (Chan's Table 1 cell):
// on a positive DDB without integrity clauses, ¬x is inferred iff x is
// outside the all-heads least fixpoint — polynomial, zero oracle calls
// (the fixpoint is the least model of the maximal split program, which
// is itself a possible model containing every possibly-true atom).
func (s *Sem) InferLiteral(d *db.DB, l logic.Lit) (bool, error) {
	if err := s.check(d); err != nil {
		return false, err
	}
	if !l.IsPos() && !d.HasIntegrityClauses() {
		return !fixpoint.PossiblyTrue(d).Test(int(l.Atom())), nil
	}
	return s.InferFormula(d, logic.LitF(l))
}

// PossiblyTrueAtoms returns the atoms true in at least one possible
// model (ignoring integrity clauses) — the polynomial closure.
func (s *Sem) PossiblyTrueAtoms(d *db.DB) *bitset.Set {
	return fixpoint.PossiblyTrue(d)
}

// InferFormula decides PWS(DB) ⊨ f: truth in every possible model,
// by enumeration (the coNP cells; each possible model costs one least-
// model fixpoint, and the enumeration is the exponential worst case a
// coNP-complete problem permits).
func (s *Sem) InferFormula(d *db.DB, f *logic.Formula) (bool, error) {
	holds := true
	_, err := s.PossibleModels(d, 0, func(m logic.Interp) bool {
		if !f.Eval(m) {
			holds = false
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return holds, nil
}

// HasModel decides PWS(DB) ≠ ∅: some split program's least model
// satisfies the integrity clauses. Without integrity clauses this is
// constantly true.
func (s *Sem) HasModel(d *db.DB) (bool, error) {
	if err := s.check(d); err != nil {
		return false, err
	}
	if !d.HasIntegrityClauses() {
		return true, nil
	}
	found := false
	_, err := s.PossibleModels(d, 1, func(logic.Interp) bool {
		found = true
		return false
	})
	return found, err
}

// Models enumerates the possible models (the paper's PWS model set).
func (s *Sem) Models(d *db.DB, limit int, yield func(logic.Interp) bool) (int, error) {
	return s.PossibleModels(d, limit, yield)
}

// CheckModel reports whether m is a possible model of d satisfying its
// integrity clauses — in polynomial time, without enumerating split
// programs:
//
//	m is the least model of some split program iff
//	(i)  every applicable rule (positive body ⊆ m) has a head atom
//	     in m (some nonempty choice within m exists), and
//	(ii) the least fixpoint of the "all heads within m" operator
//	     reaches every atom of m (each atom has a derivation whose
//	     choices stay inside m).
//
// Soundness: taking Sᵣ = head(r) ∩ m for every applicable rule gives a
// split program whose least model is exactly the fixpoint of (ii).
// Completeness: any split with least model m can only choose head
// atoms inside m on applicable rules, so its derivations are contained
// in the fixpoint of (ii).
func (s *Sem) CheckModel(d *db.DB, m logic.Interp) (bool, error) {
	if err := s.check(d); err != nil {
		return false, err
	}
	n := d.N()
	// Integrity clauses and rule applicability.
	for _, c := range d.Clauses {
		applicable := true
		for _, b := range c.PosBody {
			if !m.Holds(b) {
				applicable = false
				break
			}
		}
		if !applicable {
			continue
		}
		if c.IsIntegrity() {
			return false, nil
		}
		inM := false
		for _, h := range c.Head {
			if m.Holds(h) {
				inM = true
				break
			}
		}
		if !inM {
			return false, nil
		}
	}
	// Least fixpoint with all head choices restricted to m.
	derived := logic.NewInterp(n)
	for changed := true; changed; {
		changed = false
		for _, c := range d.Clauses {
			if c.IsIntegrity() {
				continue
			}
			fire := true
			for _, b := range c.PosBody {
				if !derived.Holds(b) {
					fire = false
					break
				}
			}
			if !fire {
				continue
			}
			for _, h := range c.Head {
				if m.Holds(h) && !derived.Holds(h) {
					derived.True.Set(int(h))
					changed = true
				}
			}
		}
	}
	return derived.Equal(m), nil
}
