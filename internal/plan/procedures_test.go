package plan_test

import (
	"math/rand"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/semtest"

	_ "disjunct/internal/semantics/all"
)

// TestProcedureIdentityAcrossFragments is the serving stack's
// end-to-end verdict-identity gate: for every fragment family a served
// query can fall into, every procedure that can answer it — fresh
// engines, fragment fast path, warm session — must return the verdict
// the refsem reference model set gives, on every literal-inference and
// model-existence query. Coverage assertions make the identity claim
// non-vacuous: the definite family must actually exercise the fast
// path, and the tiny positive family must actually exercise warm
// sessions and the reference comparison.
func TestProcedureIdentityAcrossFragments(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-checking every procedure is slow")
	}
	families := []struct {
		name  string
		dbFor func(iter int, rng *rand.Rand) *db.DB
	}{
		{"definite", func(iter int, rng *rand.Rand) *db.DB {
			return gen.Random(rng, gen.Config{Atoms: 4 + iter%2, Clauses: 5, MaxHead: 1, MaxBody: 2, FactProb: 0.4})
		}},
		{"horn", func(iter int, rng *rand.Rand) *db.DB {
			return gen.Random(rng, gen.Config{Atoms: 4 + iter%2, Clauses: 5, MaxHead: 1, MaxBody: 2, FactProb: 0.4, IntegrityPr: 0.25})
		}},
		{"stratified", func(iter int, rng *rand.Rand) *db.DB {
			return gen.RandomStratified(rng, 4+iter%2, 5, 2)
		}},
		{"positive", func(iter int, rng *rand.Rand) *db.DB {
			return gen.Random(rng, gen.Positive(4+iter%2, 5))
		}},
		{"general", func(iter int, rng *rand.Rand) *db.DB {
			return gen.Random(rng, gen.Normal(4+iter%2, 5))
		}},
	}
	sems := []string{"GCWA", "CCWA", "EGCWA", "ECWA", "CIRC", "CWA",
		"DDR", "WGCWA", "PWS", "PMS", "DSM", "PERF", "ICWA"}

	stats := map[string]semtest.CrossCheckStats{}
	for _, fam := range families {
		for _, sem := range sems {
			t.Run(fam.name+"/"+sem, func(t *testing.T) {
				stats[fam.name+"/"+sem] = semtest.CrossCheckProcedures(t, sem, 3, fam.dbFor)
			})
		}
	}

	// Route coverage: each procedure must have answered somewhere.
	if s := stats["definite/GCWA"]; s.Fast == 0 {
		t.Errorf("definite/GCWA never hit the fast path: %+v", s)
	}
	if s := stats["positive/GCWA"]; s.Warm == 0 || s.Ref == 0 {
		t.Errorf("positive/GCWA skipped warm or reference coverage: %+v", s)
	}
	if s := stats["positive/DSM"]; s.Ref == 0 {
		t.Errorf("positive/DSM never compared against the reference: %+v", s)
	}
	if s := stats["general/DSM"]; s.Queries == 0 {
		t.Errorf("general/DSM compared zero queries")
	}
}
