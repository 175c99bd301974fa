// Package semtest provides the shared verdict-identity harnesses used
// by the session and planner tests: every route the serving stack can
// take — fragment fast path, warm session, fresh engines — must answer
// exactly as the paper's model-theoretic definitions (internal/refsem)
// do.
package semtest

import (
	"context"
	"math/rand"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/refsem"
	"disjunct/internal/session"
)

// CrossCheckStats summarises one CrossCheckProcedures run so callers
// can assert coverage: a fragment family whose fast path never fired,
// or a tiny-instance family never compared against the reference
// model sets, is a harness bug (the identity claim would be vacuous).
type CrossCheckStats struct {
	Queries int // (db, kind, query) triples compared
	Fast    int // answered by the fragment fast path
	Warm    int // handled by the warm session layer
	Ref     int // compared against the refsem reference model set
}

// refSets maps a semantics onto the refsem construction of its model
// set under the engines' defaults (nil partition = full minimisation):
// CCWA with P = all atoms is GCWA; ECWA and CIRC collapse onto EGCWA's
// minimal models; WGCWA shares DDR's model set. CWA has no reference
// construction, PDSM enumerates partial models (a different answer
// shape), ICWA's stratifiability is dynamic, and refsem.PWS enumerates
// split programs, so those semantics are compared fresh-vs-session
// only.
var refSets = map[string]func(*db.DB) []logic.Interp{
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

// CrossCheckProcedures is the serving stack's verdict-identity
// harness: for every database the generator produces it runs each
// literal-inference and model-existence query through the fresh
// engines (core.New), the fragment fast path (session.FastVerdict) and
// a warm session (session.Manager.Query, shared across iterations so
// memo hits and engine reuse are exercised), and requires every
// procedure that answers to return the verdict the paper's
// definitions give — the refsem model set where one is mapped, the
// fresh engine otherwise. Queries the fresh path refuses
// (ErrUnsupported outside the semantics' class) must be refused or
// unanswered by the fast path too: routing must never turn a typed
// semantic refusal into a verdict.
func CrossCheckProcedures(t *testing.T, semName string, iters int, dbFor func(iter int, rng *rand.Rand) *db.DB) CrossCheckStats {
	t.Helper()
	rng := rand.New(rand.NewSource(977))
	mgr := session.NewManager(session.Config{})
	ctx := context.Background()
	var stats CrossCheckStats

	sem, ok := core.New(semName, core.Options{})
	info, _ := core.InfoFor(semName)
	if !ok {
		t.Fatalf("semantics %q not registered", semName)
	}

	for iter := 0; iter < iters; iter++ {
		d := dbFor(iter, rng)
		comp := mgr.InternDB(d)
		// The reference set, when the semantics has one and applies to
		// the database's syntactic features.
		var set []logic.Interp
		ref := refSets[semName]
		if ref != nil && info.Applicable(comp.HasNeg, comp.HasIC) {
			set = ref(d)
		} else {
			ref = nil
		}

		type query struct {
			kind session.Kind
			lit  logic.Lit
			text string
		}
		queries := []query{{kind: session.KindModel}}
		for a := 0; a < d.N(); a++ {
			for _, lit := range []logic.Lit{logic.PosLit(logic.Atom(a)), logic.NegLit(logic.Atom(a))} {
				queries = append(queries, query{session.KindLiteral, lit, d.Voc.LitString(lit)})
			}
		}

		for _, q := range queries {
			var want bool
			var wantErr error
			if q.kind == session.KindModel {
				want, wantErr = sem.HasModel(d)
			} else {
				want, wantErr = sem.InferLiteral(d, q.lit)
			}
			if wantErr != nil {
				// Outside the semantics' class: no other procedure may
				// answer where the reference refuses.
				if holds, ok := session.FastVerdict(comp, semName, q.kind, q.lit, nil); ok {
					t.Fatalf("iter %d: %s %v: fresh refused (%v) but fast path answered %v\nDB:\n%s",
						iter, semName, q.kind, wantErr, holds, d.String())
				}
				continue
			}
			stats.Queries++

			if ref != nil {
				stats.Ref++
				got := len(set) > 0
				if q.kind == session.KindLiteral {
					got = refsem.Entails(set, logic.LitF(q.lit))
				}
				if got != want {
					t.Fatalf("iter %d: %s %v %s: fresh=%v refsem=%v\nDB:\n%s",
						iter, semName, q.kind, q.text, want, got, d.String())
				}
			}

			if got, ok := session.FastVerdict(comp, semName, q.kind, q.lit, nil); ok {
				stats.Fast++
				if got != want {
					t.Fatalf("iter %d: %s %v %s: fast=%v fresh=%v\nDB:\n%s",
						iter, semName, q.kind, q.text, got, want, d.String())
				}
			}

			res, handled := mgr.Query(ctx, comp, session.Request{
				Sem: semName, Kind: q.kind, Lit: q.lit, QueryText: q.text,
			})
			if handled {
				if res.Err != nil {
					t.Fatalf("iter %d: %s %v %s: unbudgeted warm query interrupted: %v",
						iter, semName, q.kind, q.text, res.Err)
				}
				stats.Warm++
				if res.Holds != want {
					t.Fatalf("iter %d: %s %v %s (path %s): warm=%v fresh=%v\nDB:\n%s",
						iter, semName, q.kind, q.text, res.Path, res.Holds, want, d.String())
				}
			}
		}
	}
	if st := mgr.Stats(); st.ActiveCheckouts != 0 {
		t.Fatalf("%s: %d session checkouts leaked", semName, st.ActiveCheckouts)
	}
	return stats
}
