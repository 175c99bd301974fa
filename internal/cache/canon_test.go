package cache

import (
	"math/rand"
	"testing"

	"disjunct/internal/logic"
)

// cl builds a clause from ±(atom+1) integers: 1 is atom 0 positive,
// -3 is atom 2 negated.
func cl(lits ...int) logic.Clause {
	out := make(logic.Clause, len(lits))
	for i, l := range lits {
		if l > 0 {
			out[i] = logic.PosLit(logic.Atom(l - 1))
		} else {
			out[i] = logic.NegLit(logic.Atom(-l - 1))
		}
	}
	return out
}

func cnf(cls ...logic.Clause) logic.CNF { return logic.CNF(cls) }

// rename applies the variable permutation perm (old atom → new atom)
// to every literal.
func rename(c logic.CNF, perm map[int]int) logic.CNF {
	out := make(logic.CNF, len(c))
	for i, clause := range c {
		nc := make(logic.Clause, len(clause))
		for j, l := range clause {
			nc[j] = logic.MkLit(logic.Atom(perm[int(l.Atom())]), l.IsPos())
		}
		out[i] = nc
	}
	return out
}

func TestCanonicalKeyInvariance(t *testing.T) {
	base := cnf(cl(1, 2), cl(-1, 3), cl(-2, -3), cl(1, 2, 3))
	baseKey := Canonicalize(4, base).Key

	cases := []struct {
		name string
		cnf  logic.CNF
	}{
		{"clause permutation", cnf(cl(-2, -3), cl(1, 2, 3), cl(1, 2), cl(-1, 3))},
		{"literal permutation inside clauses", cnf(cl(2, 1), cl(3, -1), cl(-3, -2), cl(3, 1, 2))},
		{"duplicate literals", cnf(cl(1, 2, 2, 1), cl(-1, 3, -1), cl(-2, -3), cl(1, 2, 3, 2))},
		{"duplicate clauses", cnf(cl(1, 2), cl(1, 2), cl(-1, 3), cl(-2, -3), cl(1, 2, 3), cl(-1, 3))},
		{"variable renaming", rename(base, map[int]int{0: 2, 1: 0, 2: 1})},
		{"renaming+permutation+dups", rename(
			cnf(cl(1, 2, 3), cl(-2, -3, -3), cl(-1, 3), cl(2, 1)),
			map[int]int{0: 1, 1: 2, 2: 0})},
		{"tautologies dropped", cnf(cl(1, 2), cl(-1, 3), cl(-2, -3), cl(1, 2, 3), cl(1, -1, 2), cl(3, -3))},
		{"renaming into spare vocabulary", rename(base, map[int]int{0: 7, 1: 4, 2: 9})},
	}
	for _, tc := range cases {
		got := Canonicalize(12, tc.cnf)
		if got.Key != baseKey {
			t.Errorf("%s: key diverges from base", tc.name)
		}
	}
	// The exact fingerprint must distinguish reorderings even though
	// the key does not.
	if Canonicalize(4, base).Raw == Canonicalize(4, cases[0].cnf).Raw {
		t.Error("raw fingerprint ignores clause order")
	}
	if Canonicalize(4, base).Raw != Canonicalize(4, base).Raw {
		t.Error("raw fingerprint not deterministic")
	}
	if Canonicalize(4, base).Raw == Canonicalize(5, base).Raw {
		t.Error("raw fingerprint ignores variable count")
	}
}

func TestCanonicalKeyDistinctness(t *testing.T) {
	// Pairwise non-isomorphic CNFs must get pairwise distinct keys.
	// (The converse of the invariance test: sorting/renaming must not
	// conflate genuinely different structures — note polarity profiles
	// are preserved by renaming, so {{a,¬b}} ≠ {{a,b}}.)
	corpus := []struct {
		name string
		cnf  logic.CNF
	}{
		{"empty", cnf()},
		{"empty clause", cnf(cl())},
		{"unit", cnf(cl(1))},
		{"negated unit", cnf(cl(-1))},
		{"two units", cnf(cl(1), cl(2))},
		{"binary", cnf(cl(1, 2))},
		{"binary mixed", cnf(cl(1, -2))},
		{"binary both neg", cnf(cl(-1, -2))},
		{"unit+binary", cnf(cl(1), cl(1, 2))},
		{"unit+binary mixed", cnf(cl(1), cl(1, -2))},
		{"chain", cnf(cl(-1, 2), cl(-2, 3))},
		{"triangle", cnf(cl(1, 2), cl(2, 3), cl(1, 3))},
		{"ternary", cnf(cl(1, 2, 3))},
		{"contradiction", cnf(cl(1), cl(-1))},
		{"3col-ish", cnf(cl(1, 2, 3), cl(-1, -2), cl(-2, -3), cl(-1, -3))},
	}
	keys := map[Key]string{}
	for _, tc := range corpus {
		k := Canonicalize(6, tc.cnf).Key
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision between %q and %q", prev, tc.name)
		}
		keys[k] = tc.name
	}
}

// TestCanonicalRandomRenamings canonicalizes random CNFs under many
// random variable permutations and clause shuffles: every variant of
// one instance must map to the instance's key, and variants of
// different instances must not collide.
func TestCanonicalRandomRenamings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for inst := 0; inst < 50; inst++ {
		n := 3 + rng.Intn(6)
		m := 2 + rng.Intn(10)
		base := make(logic.CNF, m)
		for i := range base {
			k := 1 + rng.Intn(3)
			c := make(logic.Clause, k)
			for j := range c {
				c[j] = logic.MkLit(logic.Atom(rng.Intn(n)), rng.Intn(2) == 0)
			}
			base[i] = c
		}
		want := Canonicalize(n, base).Key
		for trial := 0; trial < 8; trial++ {
			perm := rng.Perm(n)
			pm := map[int]int{}
			for i, p := range perm {
				pm[i] = p
			}
			variant := rename(base, pm)
			rng.Shuffle(len(variant), func(i, j int) { variant[i], variant[j] = variant[j], variant[i] })
			if got := Canonicalize(n, variant).Key; got != want {
				t.Fatalf("instance %d trial %d: renamed/shuffled variant got a different key", inst, trial)
			}
		}
	}
}

// BenchmarkCanonicalize measures the canonical labeling on a
// deterministic pseudo-random 3-CNF, the shape of a typical
// minimality query.
func BenchmarkCanonicalize(b *testing.B) {
	const nVars, nClauses = 40, 120
	rng := rand.New(rand.NewSource(1))
	c := make(logic.CNF, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		var lits []int
		for j := 0; j < 3; j++ {
			l := 1 + rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				l = -l
			}
			lits = append(lits, l)
		}
		c = append(c, cl(lits...))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Canonicalize(nVars, c)
	}
}
