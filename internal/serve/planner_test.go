package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"disjunct/internal/keyspace"
	"disjunct/internal/plan"
)

// newPlannerServer builds a planner-enabled server (which implies
// sessions) and its test listener.
func newPlannerServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Planner = true
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestPlannerVerdictIdentityAndPaths drives one query down each route
// a planner-enabled server has — fast path, warm session, and fresh —
// and checks each served verdict against the direct library call.
// Classification and cost-aware admission must never move a verdict.
func TestPlannerVerdictIdentityAndPaths(t *testing.T) {
	srv, ts := newPlannerServer(t, Config{})

	post1 := func(sem, dbText, lit string) QueryResponse {
		t.Helper()
		status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: sem, DB: dbText, Literal: lit})
		if status != http.StatusOK {
			t.Fatalf("%s on %q: status %d body %s", sem, dbText, status, body)
		}
		qr := decodeQueryResponse(t, body)
		if qr.Incomplete {
			t.Fatalf("%s on %q: unexpected interruption %s", sem, dbText, qr.CauseCode)
		}
		if want := directVerdict(t, sem, dbText, lit); qr.Holds != want {
			t.Fatalf("%s ⊨ %s on %q (path %q): served=%v direct=%v", sem, lit, dbText, qr.Path, qr.Holds, want)
		}
		return qr
	}

	// Fast path: definite fragment, zero NP calls.
	if qr := post1("GCWA", "a. b :- a.", "b"); qr.Path != "fast" || qr.Counters.NPCalls != 0 {
		t.Errorf("definite GCWA: path %q np=%d, want fast/0", qr.Path, qr.Counters.NPCalls)
	}
	// Warm session: minimal-model family on the general fragment.
	if qr := post1("GCWA", "a | b. b | c.", "-a"); qr.Path != "session" {
		t.Errorf("disjunctive GCWA: path %q, want session", qr.Path)
	}
	// Σ₂ᵖ query outside the warm family, tiny or not: the fresh path.
	if qr := post1("DSM", "a | b. b | c.", "-a"); qr.Path != "" || qr.Counters.NPCalls == 0 {
		t.Errorf("tiny DSM: path %q np=%d, want fresh (empty) with oracle calls", qr.Path, qr.Counters.NPCalls)
	}
	// Calibrating the key expensive changes admission, not the route.
	for _, e := range srv.planner.Export() {
		if e.Sem == "DSM" {
			srv.planner.Observe(e.Raw, "DSM", plan.Cost{NPCalls: 10_000})
		}
	}
	if qr := post1("DSM", "a | b. b | c.", "-a"); qr.Path != "" {
		t.Errorf("expensive-estimate DSM: path %q, want fresh (empty)", qr.Path)
	}
	// NP-class and no warm family: the fresh path, as before the
	// planner existed.
	if qr := post1("CWA", "a | b.", "-a"); qr.Path != "" {
		t.Errorf("CWA: path %q, want fresh (empty)", qr.Path)
	}

	h, err := FetchHealth(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if h.Planner == nil {
		t.Fatal("healthz missing planner section on a planner-enabled server")
	}
	for _, key := range []string{
		"decisions", "estimates_served", "estimate_entries", "observations", "shed_cost",
	} {
		if _, ok := h.Planner[key]; !ok {
			t.Fatalf("healthz planner section missing %q: %v", key, h.Planner)
		}
	}
	ps := h.Planner
	if ps["decisions"] != 5 || ps["observations"] != 6 || ps["estimates_served"] == 0 {
		t.Errorf("planner stats %v, want 5 decisions, 6 observations (5 served + 1 injected), served estimates", ps)
	}
	if len(ps) != 5 {
		t.Errorf("healthz planner section has %d keys, want 5: %v", len(ps), ps)
	}
	if _, ok := h.Stats["shed_cost"]; !ok {
		t.Error("healthz stats missing shed_cost counter")
	}

	// A planner-off server reports no planner section.
	if h := New(Config{}).health(); h.Planner != nil {
		t.Error("planner-off server reports a planner section")
	}
}

// TestPlannerCostShedTyped429 pins the cost-aware admission contract:
// above the occupancy threshold an expensive (Σ₂ᵖ-class, cold) query
// sheds with the typed shed_cost 429 before claiming a queue slot,
// whatever its size, while fast-path and NP-class traffic keeps being
// admitted; below the threshold nothing sheds.
func TestPlannerCostShedTyped429(t *testing.T) {
	srv, ts := newPlannerServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})

	// Simulate one in-flight request (occupancy 1/2 = the default 0.5
	// threshold) without racing a real slow query.
	srv.adm.queued.Add(1)
	defer srv.adm.queued.Add(-1)

	const wide = "a | b. c | d. e | f. g | h. i | j."
	for _, dbText := range []string{wide, "a | b. b | c."} {
		status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "DSM", DB: dbText, Literal: "-a"})
		if status != http.StatusTooManyRequests {
			t.Fatalf("cold Σ₂ᵖ query on %q under overload: status %d body %s, want 429", dbText, status, body)
		}
		er := decodeErrorResponse(t, body)
		if er.Error != ShedCost {
			t.Fatalf("shed reason %q, want %q", er.Error, ShedCost)
		}
		if er.RetryAfterMS <= 0 {
			t.Errorf("shed_cost response missing retry_after_ms: %+v", er)
		}
	}

	// Cheap traffic is untouched at the same occupancy.
	if status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "GCWA", DB: "a. b :- a.", Literal: "b"}); status != http.StatusOK {
		t.Fatalf("fast-path query under overload: status %d body %s", status, body)
	}
	if status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "CWA", DB: "a | b.", Literal: "-a"}); status != http.StatusOK {
		t.Fatalf("NP-class query under overload: status %d body %s", status, body)
	}

	// Below the threshold the same expensive query is admitted.
	srv.adm.queued.Add(-1)
	status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "DSM", DB: wide, Literal: "-a"})
	srv.adm.queued.Add(1) // restore for the deferred release
	if status != http.StatusOK {
		t.Fatalf("Σ₂ᵖ query below occupancy threshold: status %d body %s", status, body)
	}

	h, err := FetchHealth(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats["shed_cost"] != 2 || h.Planner["shed_cost"] != 2 {
		t.Errorf("shed_cost counters: stats=%d planner=%d, want 2/2", h.Stats["shed_cost"], h.Planner["shed_cost"])
	}
}

// TestPlannerRouteStable pins one key's route and cost across repeats:
// a tiny Σ₂ᵖ literal query sent 20 times to a planner-enabled server
// must come back on the same path with the same NP-call count every
// time, and the key's exported estimate must average exactly that
// count. A procedure whose observed cost feeds back into its own
// routing (an oracle-free answer observed as 0 NP calls pulling the
// estimate down until the solver path takes over again) makes the
// route alternate between repeats and the estimate a mix of two
// procedures' costs.
func TestPlannerRouteStable(t *testing.T) {
	srv, ts := newPlannerServer(t, Config{})
	const dbText = "a | b. b | c. c | d."
	var path string
	var np int64
	for i := 0; i < 20; i++ {
		status, body := post(t, ts, "/v1/infer/literal", QueryRequest{Semantics: "DSM", DB: dbText, Literal: "-a"})
		if status != http.StatusOK {
			t.Fatalf("repeat %d: status %d body %s", i, status, body)
		}
		qr := decodeQueryResponse(t, body)
		if i == 0 {
			path, np = qr.Path, qr.Counters.NPCalls
			continue
		}
		if qr.Path != path || qr.Counters.NPCalls != np {
			t.Fatalf("repeat %d: path %q np=%d, first answer path %q np=%d", i, qr.Path, qr.Counters.NPCalls, path, np)
		}
	}
	ests := srv.planner.Export()
	if len(ests) != 1 || ests[0].Sem != "DSM" || ests[0].Count != 20 {
		t.Fatalf("exported estimates %+v, want one DSM entry over 20 observations", ests)
	}
	if mean := ests[0].SumNP / ests[0].Count; mean != np || ests[0].SumNP != 20*np {
		t.Errorf("estimate sums %d NP over %d observations (mean %d), want exactly %d per query",
			ests[0].SumNP, ests[0].Count, mean, np)
	}
}

// TestHandoffEstimateRoundTrip: calibrated estimates ride the handoff
// — exported alongside artifacts and verdicts, sliced by the same
// keyspace ranges, and imported idempotently (max-count wins) into a
// peer whose planner then serves them on first sight of the key.
func TestHandoffEstimateRoundTrip(t *testing.T) {
	_, tsA := newPlannerServer(t, Config{})

	dbs := []string{"a | b.", "a | b. c | d.", "a | b. b | c."}
	for _, d := range dbs {
		for _, sem := range []string{"GCWA", "DSM"} {
			if status, body := post(t, tsA, "/v1/infer/literal", QueryRequest{Semantics: sem, DB: d, Literal: "-a"}); status != http.StatusOK {
				t.Fatalf("%s on %q: status %d body %s", sem, d, status, body)
			}
		}
	}

	full := exportHandoff(t, tsA.URL, "")
	if len(full.Estimates) < len(dbs) {
		t.Fatalf("full export carries %d estimates for %d×2 observed queries", len(full.Estimates), len(dbs))
	}

	// Ranges slice estimates exactly like artifacts and verdicts.
	h0 := keyspace.HashKey(full.Estimates[0].Raw)
	slice := keyspace.Ranges{{Lo: h0 - 1, Hi: h0}}
	rest := keyspace.Ranges{{Lo: h0, Hi: h0 - 1}}
	in := exportHandoff(t, tsA.URL, slice.String())
	out := exportHandoff(t, tsA.URL, rest.String())
	if len(in.Estimates) == 0 || len(in.Estimates)+len(out.Estimates) != len(full.Estimates) {
		t.Fatalf("slice (%d) + complement (%d) ≠ full (%d) estimates",
			len(in.Estimates), len(out.Estimates), len(full.Estimates))
	}
	for _, e := range in.Estimates {
		if !slice.ContainsKey(e.Raw) {
			t.Fatal("estimate leaked into the wrong slice")
		}
	}

	// Import into a fresh peer: first import accepts, re-import is a
	// no-op (the semilattice merge), and the peer serves the shipped
	// estimate on its very first decision for the key.
	srvB, tsB := newPlannerServer(t, Config{})
	if got := importHandoff(t, tsB.URL, full); got.Estimates != len(full.Estimates) {
		t.Fatalf("first import accepted %d estimates, want %d", got.Estimates, len(full.Estimates))
	}
	if got := importHandoff(t, tsB.URL, full); got.Estimates != 0 {
		t.Fatalf("re-import accepted %d estimates, want 0", got.Estimates)
	}
	if status, body := post(t, tsB, "/v1/infer/literal", QueryRequest{Semantics: "DSM", DB: dbs[0], Literal: "-a"}); status != http.StatusOK {
		t.Fatalf("peer query: status %d body %s", status, body)
	}
	h, err := FetchHealth(tsB.Client(), tsB.URL)
	if err != nil {
		t.Fatal(err)
	}
	if h.Planner["estimate_entries"] != int64(len(full.Estimates)) {
		t.Errorf("peer holds %d estimate entries, want %d", h.Planner["estimate_entries"], len(full.Estimates))
	}
	if h.Planner["estimates_served"] == 0 {
		t.Error("peer never served the imported estimate on first sight of the key")
	}
	_ = srvB
}

// importHandoff POSTs a handoff body to /v1/handoff/import.
func importHandoff(t *testing.T, baseURL string, h interface{}) HandoffImportResponse {
	t.Helper()
	body, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal handoff: %v", err)
	}
	resp, err := http.Post(baseURL+"/v1/handoff/import", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import: status %d", resp.StatusCode)
	}
	var ir HandoffImportResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("import decode: %v", err)
	}
	return ir
}
