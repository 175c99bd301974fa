package plan

import (
	"sync"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/session"
	"disjunct/internal/store"

	_ "disjunct/internal/semantics/all"
)

func compile(t *testing.T, text string) *session.Compiled {
	t.Helper()
	d, err := db.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return session.NewManager(session.Config{}).InternDB(d)
}

func TestClassOf(t *testing.T) {
	definite := compile(t, "a. b :- a.")
	disj := compile(t, "a | b.")
	cases := []struct {
		comp *session.Compiled
		sem  string
		kind session.Kind
		want Class
	}{
		{definite, "GCWA", session.KindLiteral, ClassPoly}, // fast path collapses the Πᵖ₂ cell
		{disj, "GCWA", session.KindLiteral, ClassSigma2},   // general fragment, Πᵖ₂ cell
		{disj, "GCWA", session.KindModel, ClassPoly},       // positive-existence fast path
		{disj, "CWA", session.KindLiteral, ClassNP},        // coNP cell
		{disj, "DDR", session.KindLiteral, ClassNP},
		{disj, "DDR", session.KindModel, ClassPoly},    // P existence cell
		{disj, "DSM", session.KindModel, ClassPoly},    // Σᵖ₂ cell, but positive-existence fast path applies
		{disj, "PDSM", session.KindModel, ClassSigma2}, // no fast path: the Σᵖ₂ cell stands
	}
	for _, c := range cases {
		if got := ClassOf(c.comp, c.sem, c.kind); got != c.want {
			t.Errorf("ClassOf(%q, %s, %v) = %v, want %v", c.comp.D.String(), c.sem, c.kind, got, c.want)
		}
	}
	if got := ClassOf(disj, "NO-SUCH-SEMANTICS", session.KindLiteral); got != ClassSigma2 {
		t.Errorf("unknown semantics classed %v, want worst-case %v", got, ClassSigma2)
	}
}

// TestDecideClassifies pins what a decision carries: the query's cost
// class, and the key's calibrated mean NP estimate once an observation
// has landed — nothing about the instance's size.
func TestDecideClassifies(t *testing.T) {
	definite := compile(t, "a. b :- a.")
	disj := compile(t, "a | b.")

	p := New(Config{})
	if d := p.Decide(definite, "GCWA", session.KindLiteral); d.Class != ClassPoly || d.HaveEst {
		t.Errorf("definite GCWA literal: %+v, want cold poly", d)
	}
	if d := p.Decide(disj, "CWA", session.KindLiteral); d.Class != ClassNP {
		t.Errorf("CWA literal: %+v, want np", d)
	}
	d := p.Decide(disj, "DSM", session.KindLiteral)
	if d.Class != ClassSigma2 || d.HaveEst || !p.Expensive(d) {
		t.Fatalf("cold tiny DSM literal: %+v (expensive=%v), want cold sigma2 in the expensive tier", d, p.Expensive(d))
	}

	// The estimate is the mean over observations, per (fingerprint,
	// semantics) key.
	p.Observe(disj.Raw, "DSM", Cost{NPCalls: 2, Micros: 10})
	p.Observe(disj.Raw, "DSM", Cost{NPCalls: 6, Micros: 30})
	if d := p.Decide(disj, "DSM", session.KindLiteral); !d.HaveEst || d.EstNP != 4 || p.Expensive(d) {
		t.Errorf("calibrated-cheap DSM: %+v (expensive=%v), want est 4, not expensive", d, p.Expensive(d))
	}
	if d := p.Decide(disj, "GCWA", session.KindLiteral); d.HaveEst {
		t.Errorf("GCWA decision served DSM's estimate: %+v", d)
	}
	p.Observe(disj.Raw, "DSM", Cost{NPCalls: 100})
	if d := p.Decide(disj, "DSM", session.KindLiteral); !p.Expensive(d) {
		t.Errorf("calibrated-expensive DSM: %+v, want expensive", d)
	}

	st := p.Stats()
	if len(st) != 5 || st["decisions"] != 6 || st["estimates_served"] != 2 ||
		st["estimate_entries"] != 1 || st["observations"] != 3 {
		t.Errorf("planner stats %v, want 5 keys: decisions=6 estimates_served=2 estimate_entries=1 observations=3", st)
	}
}

func TestShouldShed(t *testing.T) {
	disj := compile(t, "a | b.")
	definite := compile(t, "a. b :- a.")
	p := New(Config{})

	cold := p.Decide(disj, "DSM", session.KindLiteral) // Σ₂ᵖ, cold
	if p.ShouldShed(cold, 3, 8) {
		t.Error("shed below the occupancy threshold")
	}
	if !p.ShouldShed(cold, 4, 8) {
		t.Error("cold Σ₂ᵖ query not shed at 50% occupancy")
	}
	if p.ShouldShed(cold, 4, 0) {
		t.Error("shed with a zero queue bound")
	}
	if fast := p.Decide(definite, "GCWA", session.KindLiteral); p.ShouldShed(fast, 8, 8) {
		t.Error("fast-path query shed under full queue")
	}
	if np := p.Decide(disj, "DDR", session.KindLiteral); p.ShouldShed(np, 8, 8) {
		t.Error("NP-class query shed (only the Σ₂ᵖ tier sheds)")
	}

	// A calibrated-cheap estimate exempts the key; a calibrated-expensive
	// one keeps it shed-first.
	p.Observe(disj.Raw, "DSM", Cost{NPCalls: 2})
	if d := p.Decide(disj, "DSM", session.KindLiteral); p.ShouldShed(d, 8, 8) {
		t.Error("calibrated-cheap Σ₂ᵖ query shed")
	}
	p2 := New(Config{})
	p2.Observe(disj.Raw, "DSM", Cost{NPCalls: 100})
	if d := p2.Decide(disj, "DSM", session.KindLiteral); !p2.ShouldShed(d, 8, 8) {
		t.Error("calibrated-expensive Σ₂ᵖ query not shed under overload")
	}
}

// TestEstimatorDeterminism pins the commutative-sums design: any
// interleaving of the same multiset of observations must produce the
// identical estimate. Under -race this also proves the locking.
func TestEstimatorDeterminism(t *testing.T) {
	keys := []string{"k0", "k1", "k2", "k3"}
	type obs struct {
		key string
		c   Cost
	}
	var all []obs
	for i := 0; i < 800; i++ {
		all = append(all, obs{keys[i%len(keys)], Cost{
			NPCalls: int64(i % 17), SATConfl: int64(i % 5), Micros: int64(i),
		}})
	}

	seq := newEstimator(nil)
	for _, o := range all {
		seq.observe(o.key, "DSM", o.c)
	}

	conc := newEstimator(nil)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += workers {
				conc.observe(all[i].key, "DSM", all[i].c)
			}
		}(w)
	}
	wg.Wait()

	for _, k := range keys {
		want, ok1 := seq.estimate(k, "DSM")
		got, ok2 := conc.estimate(k, "DSM")
		if !ok1 || !ok2 || want != got {
			t.Errorf("key %s: sequential %+v (ok=%v) vs concurrent %+v (ok=%v)", k, want, ok1, got, ok2)
		}
	}
	if seq.observations.Load() != conc.observations.Load() {
		t.Errorf("observation counts diverge: %d vs %d", seq.observations.Load(), conc.observations.Load())
	}
}

// TestMergeSemilattice pins the handoff-import rule: max-by-count is
// idempotent (re-importing a slice accepts nothing), monotone (a
// smaller count never clobbers a larger one), and a seed followed by
// an import of the same snapshot cannot double-count.
func TestMergeSemilattice(t *testing.T) {
	src := newEstimator(nil)
	src.observe("db1", "DSM", Cost{NPCalls: 4, Micros: 100})
	src.observe("db1", "DSM", Cost{NPCalls: 6, Micros: 200})
	src.observe("db2", "GCWA", Cost{NPCalls: 1, Micros: 10})
	snap := src.export()

	dst := newEstimator(nil)
	if got := dst.merge(snap); got != 2 {
		t.Fatalf("first import accepted %d entries, want 2", got)
	}
	if got := dst.merge(snap); got != 0 {
		t.Errorf("re-import accepted %d entries, want 0 (idempotence)", got)
	}
	for _, s := range snap {
		want, _ := src.estimate(s.Raw, s.Sem)
		got, ok := dst.estimate(s.Raw, s.Sem)
		if !ok || want != got {
			t.Errorf("%s/%s: imported %+v, want %+v", s.Raw, s.Sem, got, want)
		}
	}

	// A stale slice (smaller count) must not clobber newer sums.
	dst.observe("db1", "DSM", Cost{NPCalls: 100})
	before, _ := dst.estimate("db1", "DSM")
	if got := dst.merge(snap); got != 0 {
		t.Errorf("stale import accepted %d entries, want 0 (monotonicity)", got)
	}
	if after, _ := dst.estimate("db1", "DSM"); after != before {
		t.Errorf("stale import moved the estimate: %+v -> %+v", before, after)
	}
}

// TestEstimatePersistence proves the write-behind/seed loop: estimates
// observed against a store survive a close/reopen into a fresh
// planner, and re-seeding plus re-importing the same snapshot is a
// no-op (the restart path cannot double-count).
func TestEstimatePersistence(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	p := New(Config{Store: st})
	p.Observe("dbX", "DSM", Cost{NPCalls: 9, SATConfl: 3, Micros: 500})
	p.Observe("dbX", "DSM", Cost{NPCalls: 11, SATConfl: 5, Micros: 700})
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	p2 := New(Config{Store: st2})
	e, ok := p2.est.estimate("dbX", "DSM")
	if !ok {
		t.Fatal("estimate did not survive the restart")
	}
	if e.count != 2 || e.sumNP != 20 || e.sumConfl != 8 || e.sumMicros != 1200 {
		t.Errorf("recovered estimate %+v, want count=2 sumNP=20 sumConfl=8 sumMicros=1200", e)
	}
	if got := p2.Import(p2.Export()); got != 0 {
		t.Errorf("self re-import accepted %d entries, want 0", got)
	}
}
