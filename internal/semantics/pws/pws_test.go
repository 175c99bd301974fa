package pws

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"disjunct/internal/budget"
	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/dbtest"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/oracle"
	"disjunct/internal/refsem"
)

func TestRegisteredBothNames(t *testing.T) {
	p, ok1 := core.New("PWS", core.Options{})
	m, ok2 := core.New("PMS", core.Options{})
	if !ok1 || !ok2 || p.Name() != "PWS" || m.Name() != "PMS" {
		t.Fatalf("PWS/PMS registration broken")
	}
}

func TestSplitProgramSemantics(t *testing.T) {
	// DB = {a∨b, c←a∧b}: possible models are {a}, {b}, {a,b,c} —
	// note {a,b} is NOT possible ({a,b} split derives c) and {a,c} is
	// not possible either (c needs both a and b).
	d := dbtest.MustParse("a | b. c :- a, b.")
	s := New(core.Options{})
	var got []string
	if _, err := s.Models(d, 0, func(m logic.Interp) bool {
		got = append(got, m.String(d.Voc))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"{a}": true, "{b}": true, "{a, b, c}": true}
	if len(got) != 3 {
		t.Fatalf("possible models = %v, want 3", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected possible model %s", g)
		}
	}
}

func TestPWSDiffersFromDDR(t *testing.T) {
	// On DB = {a∨b, c←a∧b}, the formula ¬c ∨ (a∧b) holds in every
	// possible model but fails in the DDR model {a,c}.
	d := dbtest.MustParse("a | b. c :- a, b.")
	s := New(core.Options{})
	f := logic.MustParseFormula("-c | (a & b)", d.Voc)
	got, err := s.InferFormula(d, f)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatalf("PWS must infer ¬c ∨ (a∧b)")
	}
	if refsem.Entails(refsem.DDR(d), f) {
		t.Fatalf("DDR should NOT infer ¬c ∨ (a∧b) — the semantics differ here")
	}
}

func TestModelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := New(core.Options{})
	for iter := 0; iter < 250; iter++ {
		var d *db.DB
		if iter%2 == 0 {
			d = gen.Random(rng, gen.Positive(2+rng.Intn(4), 1+rng.Intn(6)))
		} else {
			d = gen.Random(rng, gen.WithIntegrity(2+rng.Intn(4), 1+rng.Intn(6)))
		}
		want := refsem.PWS(d)
		var got []logic.Interp
		if _, err := s.Models(d, 0, func(m logic.Interp) bool {
			got = append(got, m.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !refsem.SameModelSet(want, got) {
			t.Fatalf("iter %d: PWS model set mismatch\nDB:\n%swant %d got %d",
				iter, d.String(), len(want), len(got))
		}
	}
}

func TestInferLiteralMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	s := New(core.Options{})
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(6)))
		set := refsem.PWS(d)
		a := logic.Atom(rng.Intn(n))
		for _, l := range []logic.Lit{logic.PosLit(a), logic.NegLit(a)} {
			want := refsem.Entails(set, logic.LitF(l))
			got, err := s.InferLiteral(d, l)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("iter %d: InferLiteral(%s)=%v want %v\nDB:\n%s",
					iter, d.Voc.LitString(l), got, want, d.String())
			}
		}
	}
}

func TestInferFormulaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	s := New(core.Options{})
	for iter := 0; iter < 150; iter++ {
		n := 2 + rng.Intn(4)
		d := gen.Random(rng, gen.WithIntegrity(n, 1+rng.Intn(5)))
		f := randomFormula(rng, n, 3)
		want := refsem.Entails(refsem.PWS(d), f)
		got, err := s.InferFormula(d, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: InferFormula=%v want %v\nDB:\n%sF: %s",
				iter, got, want, d.String(), f.String(d.Voc))
		}
	}
}

func TestTractableCellUsesNoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	s := New(core.Options{})
	for iter := 0; iter < 50; iter++ {
		d := gen.Random(rng, gen.Positive(4+rng.Intn(8), 1+rng.Intn(10)))
		before := s.Oracle().Counters().NPCalls
		a := logic.Atom(rng.Intn(d.N()))
		if _, err := s.InferLiteral(d, logic.NegLit(a)); err != nil {
			t.Fatal(err)
		}
		if after := s.Oracle().Counters().NPCalls; after != before {
			t.Fatalf("tractable PWS cell consumed %d oracle calls", after-before)
		}
	}
}

func TestIntegrityClausesRespected(t *testing.T) {
	// Unlike DDR, PWS respects integrity clauses (Chan's improvement):
	// in Example 3.1, PWS infers ¬c.
	d := dbtest.MustParse("a | b. :- a, b. c :- a, b.")
	s := New(core.Options{})
	c, _ := d.Voc.Lookup("c")
	got, err := s.InferLiteral(d, logic.NegLit(c))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatalf("PWS must infer ¬c in Example 3.1 (integrity clause kills the {a,b,c} world)")
	}
}

func TestNegationUnsupported(t *testing.T) {
	d := dbtest.MustParse("a :- not b.")
	s := New(core.Options{})
	if _, err := s.InferLiteral(d, logic.PosLit(0)); err != core.ErrUnsupported {
		t.Fatalf("PWS with negation should be unsupported, got %v", err)
	}
}

func TestHasModel(t *testing.T) {
	s := New(core.Options{})
	if ok, _ := s.HasModel(dbtest.MustParse("a | b.")); !ok {
		t.Fatalf("PWS model must exist without ICs")
	}
	if ok, _ := s.HasModel(dbtest.MustParse("a | b. :- a. :- b.")); ok {
		t.Fatalf("no possible world survives the ICs")
	}
}

func randomFormula(rng *rand.Rand, n, depth int) *logic.Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		a := logic.Atom(rng.Intn(n))
		if rng.Intn(2) == 0 {
			return logic.Not(logic.AtomF(a))
		}
		return logic.AtomF(a)
	}
	l := randomFormula(rng, n, depth-1)
	r := randomFormula(rng, n, depth-1)
	switch rng.Intn(3) {
	case 0:
		return logic.And(l, r)
	case 1:
		return logic.Or(l, r)
	default:
		return logic.Implies(l, r)
	}
}

// TestSplitEnumerationHonorsDeadline: the split odometer issues no
// oracle call, so only its own budget poll can stop it. A literal query
// over 3¹³ ≈ 1.6·10⁶ split programs that must visit every one of them
// (z holds in every possible model) returns the typed deadline cause
// long before the enumeration could finish.
func TestSplitEnumerationHonorsDeadline(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 13; i++ {
		fmt.Fprintf(&b, "x%d | y%d. ", i, i)
	}
	b.WriteString("z.")
	d := dbtest.MustParse(b.String())
	o := oracle.NewNP().WithBudget(budget.New(context.Background(), budget.Limits{Deadline: 5 * time.Millisecond}))
	s := New(core.Options{Oracle: o})
	z, _ := d.Voc.Lookup("z")

	start := time.Now()
	_, err := s.InferLiteral(d, logic.PosLit(z))
	elapsed := time.Since(start)
	if !errors.Is(err, budget.ErrDeadline) {
		t.Fatalf("InferLiteral err = %v, want %v", err, budget.ErrDeadline)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline of 5ms honoured only after %v", elapsed)
	}
}
