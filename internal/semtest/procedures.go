// Package semtest provides the shared verdict-identity harnesses used
// by the session and planner tests: every route the serving stack can
// take — fragment fast path, warm session, brute refsem construction —
// must answer exactly as the fresh semantics engines do.
package semtest

import (
	"context"
	"math/rand"
	"testing"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/plan"
	"disjunct/internal/session"
)

// ProcedureStats summarises one CrossCheckProcedures run so callers
// can assert route coverage: a fragment family whose fast path never
// fired, or a tiny-instance family the brute procedure never answered,
// is a harness bug (the identity claim would be vacuous).
type ProcedureStats struct {
	Queries int // (db, kind, query) triples compared
	Fast    int // answered by the fragment fast path
	Warm    int // handled by the warm session layer
	Brute   int // answered by brute refsem construction
}

// CrossCheckProcedures is the planner's verdict-identity harness: for
// every database the generator produces it runs each literal-inference
// and model-existence query through all four procedures the planner
// routes between — the fresh engines (core.New, the reference for this
// check), the fragment fast path (session.FastVerdict), a warm session
// (session.Manager.Query, shared across iterations so memo hits and
// engine reuse are exercised), and brute refsem construction
// (plan.Brute) — and requires every procedure that answers to return
// the identical verdict. Queries the fresh path refuses (ErrUnsupported
// outside the semantics' class) must be refused or unanswered by every
// other procedure too: routing must never turn a typed semantic
// refusal into a verdict.
func CrossCheckProcedures(t *testing.T, semName string, iters int, dbFor func(iter int, rng *rand.Rand) *db.DB) ProcedureStats {
	t.Helper()
	rng := rand.New(rand.NewSource(977))
	mgr := session.NewManager(session.Config{})
	ctx := context.Background()
	var stats ProcedureStats

	sem, ok := core.New(semName, core.Options{})
	if !ok {
		t.Fatalf("semantics %q not registered", semName)
	}

	for iter := 0; iter < iters; iter++ {
		d := dbFor(iter, rng)
		comp := mgr.InternDB(d)

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
				if holds, ok := plan.Brute(ctx, comp, semName, q.kind, q.lit, nil, 16); ok {
					t.Fatalf("iter %d: %s %v: fresh refused (%v) but brute answered %v\nDB:\n%s",
						iter, semName, q.kind, wantErr, holds, d.String())
				}
				if holds, ok := session.FastVerdict(comp, semName, q.kind, q.lit, nil); ok {
					t.Fatalf("iter %d: %s %v: fresh refused (%v) but fast path answered %v\nDB:\n%s",
						iter, semName, q.kind, wantErr, holds, d.String())
				}
				continue
			}
			stats.Queries++

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

			if got, ok := plan.Brute(ctx, comp, semName, q.kind, q.lit, nil, 16); ok {
				stats.Brute++
				if got != want {
					t.Fatalf("iter %d: %s %v %s: brute=%v fresh=%v\nDB:\n%s",
						iter, semName, q.kind, q.text, got, want, d.String())
				}
			}
		}
	}
	if st := mgr.Stats(); st.ActiveCheckouts != 0 {
		t.Fatalf("%s: %d session checkouts leaked", semName, st.ActiveCheckouts)
	}
	return stats
}
