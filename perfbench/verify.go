package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/refsem"
)

// parsed is a request's database and query, parsed the way the server
// parses them.
type parsed struct {
	d   *db.DB
	lit logic.Lit
	f   *logic.Formula
}

func parseRequest(r request) (parsed, error) {
	d, err := db.Parse(r.DB)
	if err != nil {
		return parsed{}, fmt.Errorf("db: %w", err)
	}
	return parseQuery(r, d)
}

// parseQuery parses the request's literal or formula against d.
func parseQuery(r request, d *db.DB) (parsed, error) {
	p := parsed{d: d}
	switch r.Kind {
	case "literal":
		name, neg := strings.TrimPrefix(r.Query, "-"), strings.HasPrefix(r.Query, "-")
		a, ok := d.Voc.Lookup(name)
		if !ok {
			return p, fmt.Errorf("literal %q not in vocabulary", r.Query)
		}
		p.lit = logic.MkLit(a, !neg)
	case "formula":
		f, err := logic.ParseFormula(r.Query, d.Voc)
		if err != nil {
			return p, fmt.Errorf("formula: %w", err)
		}
		p.f = f
	}
	return p, nil
}

// decide answers a query with a direct library call: a fresh
// semantics instance on a fresh, unbudgeted oracle.
func decide(r request, p parsed, o *oracle.NP) (bool, error) {
	sem, ok := core.New(r.Sem, core.Options{Oracle: o})
	if !ok {
		return false, fmt.Errorf("semantics %q not registered", r.Sem)
	}
	switch r.Kind {
	case "literal":
		return sem.InferLiteral(p.d, p.lit)
	case "formula":
		return sem.InferFormula(p.d, p.f)
	default:
		return sem.HasModel(p.d)
	}
}

// refsemSet maps a semantics onto its brute-force reference model set
// under the default full-minimisation partition; ok is false where the
// reference has no total-model construction (CWA; PDSM's partial
// models).
func refsemSet(sem string, d *db.DB) (set []logic.Interp, ok bool) {
	switch sem {
	case "GCWA", "CCWA":
		return refsem.GCWA(d), true
	case "EGCWA", "ECWA", "CIRC":
		return refsem.EGCWA(d), true
	case "DDR", "WGCWA":
		return refsem.DDR(d), true
	case "PWS", "PMS":
		return refsem.PWS(d), true
	case "DSM":
		return refsem.DSM(d), true
	case "PERF":
		return refsem.PERF(d), true
	case "ICWA":
		return refsem.ICWA(d)
	}
	return nil, false
}

// refsemWork estimates the reference's enumeration work; the cross-
// check runs on vocabularies of at most maxRefAtoms atoms whose work
// stays under maxRefWork (the stable-model and perfect-model
// references compare interpretations pairwise, and the possible-world
// reference enumerates every split program).
const (
	maxRefAtoms = 20
	maxRefWork  = 1 << 18
)

func refsemWork(sem string, d *db.DB) float64 {
	n := float64(d.N())
	switch sem {
	case "DSM", "PERF", "ICWA":
		return math.Pow(4, n)
	case "PWS", "PMS":
		w := 1.0
		for _, c := range d.Clauses {
			if len(c.Head) > 1 {
				w *= math.Pow(2, float64(len(c.Head))) - 1
			}
		}
		return w
	}
	return math.Pow(2, n)
}

func refsemEligible(r request, p parsed) bool {
	if r.stream() || p.d.N() > maxRefAtoms || r.Sem == "CWA" || r.Sem == "PDSM" {
		return false
	}
	return refsemWork(r.Sem, p.d) <= maxRefWork
}

func (v *verifier) refsemDecide(r request, p parsed) (bool, error) {
	key := r.Sem + "\x00" + r.DB
	set, ok := v.sets[key]
	if !ok {
		if set, ok = refsemSet(r.Sem, p.d); !ok {
			return false, fmt.Errorf("no reference for %s on this database", r.Sem)
		}
		v.sets[key] = set
	}
	switch r.Kind {
	case "literal":
		return refsem.Entails(set, logic.LitF(p.lit)), nil
	case "formula":
		return refsem.Entails(set, p.f), nil
	}
	return len(set) > 0, nil
}

// streamReference enumerates the request's (minimal) models with a
// direct library call and returns their sorted-atom keys.
func streamReference(r request, p parsed) []string {
	eng := models.NewEngine(p.d, oracle.NewNP())
	var keys []string
	collect := func(m logic.Interp) bool {
		var atoms []string
		for v := 0; v < p.d.N(); v++ {
			if m.Holds(logic.Atom(v)) {
				atoms = append(atoms, p.d.Voc.Name(logic.Atom(v)))
			}
		}
		keys = append(keys, modelKey(atoms))
		return true
	}
	if r.Kind == "minimal" {
		eng.MinimalModels(0, collect)
	} else {
		eng.EnumerateModels(0, collect)
	}
	return keys
}

// verdict is a request's reference answer, computed once per distinct
// request body.
type verdict struct {
	holds   bool
	models  int
	set     [sha256.Size]byte
	refsem  bool // cross-checked against the brute-force reference
	problem string
}

// verifier checks every timed answer against the library, after the
// timed window.
type verifier struct {
	refs          map[string]*verdict       // by request body
	sets          map[string][]logic.Interp // refsem model sets by semantics and DB text
	RefsemChecked int
	Divergent     int
	Failures      []string
}

func newVerifier() *verifier {
	return &verifier{refs: map[string]*verdict{}, sets: map[string][]logic.Interp{}}
}

func (v *verifier) reference(r request) *verdict {
	if ref, ok := v.refs[string(r.Body)]; ok {
		return ref
	}
	ref := &verdict{}
	v.refs[string(r.Body)] = ref
	p, err := parseRequest(r)
	if err != nil {
		ref.problem = "reference parse: " + err.Error()
		return ref
	}
	if r.stream() {
		keys := streamReference(r, p)
		ref.models, ref.set = len(keys), modelSetDigest(keys)
		return ref
	}
	if ref.holds, err = decide(r, p, oracle.NewNP()); err != nil {
		ref.problem = "reference call: " + err.Error()
		return ref
	}
	if refsemEligible(r, p) {
		want, err := v.refsemDecide(r, p)
		switch {
		case err != nil:
			ref.problem = "refsem: " + err.Error()
		case want != ref.holds:
			ref.problem = fmt.Sprintf("library says %v, refsem says %v", ref.holds, want)
		default:
			ref.refsem = true
		}
	}
	return ref
}

// check verifies one exchange. It returns whether the answer is a
// verified definite answer; any other outcome is recorded as a failure
// naming the request.
func (v *verifier) check(r request, o outcome) bool {
	fail := func(format string, args ...any) bool {
		v.Failures = append(v.Failures, fmt.Sprintf("request %d (%s %s %s %q): ", r.ID, r.Cell, r.Sem, r.Kind, r.Query)+fmt.Sprintf(format, args...))
		return false
	}
	if !o.definite(r.stream()) {
		if o.Err != "" {
			return fail("%s", o.Err)
		}
		if st := o.Stream; st != nil {
			return fail("stream ended %q after %d models", st.Done.Cause, st.Models)
		}
		return fail("verdict %q cause %q", o.Resp.Verdict, o.Resp.CauseCode)
	}
	ref := v.reference(r)
	if ref.problem != "" {
		v.Divergent++
		return fail("%s", ref.problem)
	}
	if ref.refsem {
		v.RefsemChecked++
	}
	if r.stream() {
		if o.Stream.ModelSet != ref.set {
			v.Divergent++
			return fail("streamed %d models, library enumerates %d (sets differ)", o.Stream.Models, ref.models)
		}
		return true
	}
	if o.Resp.Holds != ref.holds {
		v.Divergent++
		return fail("served %v, library says %v", o.Resp.Holds, ref.holds)
	}
	return true
}
