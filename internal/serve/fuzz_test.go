package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"disjunct/internal/budget"
)

// errorCodes is the closed set of ErrorResponse.Error values a query
// endpoint may answer with.
var errorCodes = map[string]bool{
	ShedQueueFull: true, ShedQueueWait: true, ShedClientGone: true,
	ShedDraining: true, ShedBreakerOpen: true, ShedCost: true,
	ReasonBadRequest: true, ReasonUnknownSemantics: true,
	ReasonUnsupported: true, ReasonNotStratifiable: true,
}

// FuzzServeQuery feeds arbitrary bodies to /v1/infer/literal on a
// planner-enabled server under tight ceilings — the decoder, the
// compile cache, the cost classifier and whichever route answers all
// see client-controlled input. The server must never panic and never
// answer 5xx; every 200 must be a QueryResponse whose interruption, if
// any, carries a known cause code, and every other status must carry a
// typed ErrorResponse.
func FuzzServeQuery(f *testing.F) {
	for _, req := range []QueryRequest{
		{Semantics: "GCWA", DB: "a. b :- a.", Literal: "b"},
		{Semantics: "DSM", DB: "a | b. b | c.", Literal: "-a"},
		{Semantics: "CWA", DB: "a | b.", Literal: "not a"},
		{Semantics: "PERF", DB: "a :- not b. :- a.", Literal: "~a"},
		{Semantics: "PWS", DB: "p :- not q. q :- not p.", Literal: "p"},
		{Semantics: "ICWA", DB: "p :- not q. q :- not p.", Literal: "q"},
		{Semantics: "GCWA", DB: "a | b.", Literal: "zz"},
		{Semantics: "NOPE", DB: "a.", Literal: "a"},
		{Semantics: "DDR", DB: "", Literal: "a"},
		{Semantics: "EGCWA", DB: "a | b | c. d :- a.", Literal: "-d", Limits: LimitsJSON{DeadlineMS: 1}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"semantics":"GCWA","db":"a | b.","literal":"-a","limits":{"conflicts":-1}}`))
	f.Add([]byte(`{"semantics":"DSM","db":"a | b.","literal":"-","formula":"a &"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))

	srv := New(Config{
		Planner:  true,
		Ceilings: budget.Limits{Deadline: 20 * time.Millisecond, Conflicts: 2000, NPCalls: 200},
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer/literal", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			var qr QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
				t.Fatalf("200 body does not parse as QueryResponse: %v\n%s", err, rec.Body.Bytes())
			}
			if qr.Incomplete && !KnownCauseCodes[qr.CauseCode] {
				t.Fatalf("incomplete verdict with untyped cause %q for body %q", qr.CauseCode, body)
			}
			return
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !errorCodes[er.Error] {
			t.Fatalf("status %d for body %q without a typed error (%v): %s", rec.Code, body, err, rec.Body.Bytes())
		}
	})
}
