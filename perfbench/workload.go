package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"disjunct/internal/core"
	"disjunct/internal/db"
	"disjunct/internal/gen"
	"disjunct/internal/logic"
	"disjunct/internal/qbf"
	"disjunct/internal/reduction"
	"disjunct/internal/serve"
	"disjunct/internal/session"
	"disjunct/internal/strat"
)

// request is one pre-generated HTTP exchange. Everything the client
// sends is fixed here, before timing starts, as a pure function of the
// workload seed.
type request struct {
	ID    int
	Cell  string // generator cell, e.g. "T2/PWS/formula/8" or "general/EGCWA"
	Sem   string // semantics name; "" for streams
	Kind  string // "literal" | "formula" | "model" | "models" | "minimal"
	Class string // complexity cell of (Sem, Kind) from core.Info; "" for streams
	DB    string // database text exactly as sent
	Query string // literal or formula text ("" for model queries and streams)
	Path  string // endpoint
	Body  []byte
}

func (r request) stream() bool { return r.Kind == "models" || r.Kind == "minimal" }

// workload is a seeded request set: Warm is sent during set-up (and is
// disjoint from Timed for the cold workloads), Timed in the measured
// window, in order. Pairs is the (DB, semantics) working set of the
// hot pool; zero elsewhere.
type workload struct {
	Name  string
	Warm  []request
	Timed []request
	Pairs int
}

// Workload sizes. The cold workloads pre-generate more never-seen
// requests than one window can consume on the reference machine (a
// run that exhausts them stops early and says so); hot-session wraps
// around its draw sequence, which is all repeats of a fixed pool.
const (
	hotPoolDBs   = 16
	hotDraws     = 20000
	coldPerSec   = 400
	streamPerSec = 600
	warmCount    = 40
)

var workloads = map[string]bool{"hot-session": true, "cold-cells": true, "enum-stream": true}

func genWorkload(name string, seed int64, seconds int) *workload {
	switch name {
	case "hot-session":
		return genHot(seed)
	case "cold-cells":
		return genCold(seed, coldPerSec*seconds)
	}
	return genStream(seed, streamPerSec*seconds)
}

// newRequest renders one query into its wire body.
func newRequest(cell, sem, kind, dbText, query string) request {
	r := request{Cell: cell, Sem: sem, Kind: kind, DB: dbText, Query: query}
	switch kind {
	case "models", "minimal":
		r.Path = "/v1/models/stream"
		r.Body, _ = json.Marshal(serve.StreamRequest{DB: dbText, Kind: kind})
		return r
	case "literal":
		r.Path = "/v1/infer/literal"
	case "formula":
		r.Path = "/v1/infer/formula"
	default:
		r.Path = "/v1/model"
	}
	info, _ := core.InfoFor(sem)
	r.Class = info.Cell(kind)
	q := serve.QueryRequest{Semantics: sem, DB: dbText}
	if kind == "literal" {
		q.Literal = query
	} else if kind == "formula" {
		q.Formula = query
	}
	r.Body, _ = json.Marshal(q)
	return r
}

// number assigns request ids: warm-up requests count up to -1, timed
// requests from 0 in draw order.
func number(rs []request, from int) {
	for i := range rs {
		rs[i].ID = from + i
	}
}

// roundTrip re-parses a generated database from its text, so every
// atom a query names exists in the vocabulary the server will parse
// (a generated atom that occurs in no clause is absent there).
func roundTrip(d *db.DB) (*db.DB, string) {
	text := d.String()
	rt, err := db.Parse(text)
	if err != nil || rt.N() == 0 {
		return nil, ""
	}
	return rt, text
}

// applicable reports whether sem is defined on d: the static core.Info
// flags, plus a stratifiability test for stratification-based
// semantics (ICWA), so no generated request can draw a 422.
func applicable(sem string, d *db.DB) bool {
	info, ok := core.InfoFor(sem)
	if !ok || !info.Applicable(d.HasNegation(), d.HasIntegrityClauses()) {
		return false
	}
	if info.Stratified {
		if _, ok := strat.Compute(d); !ok {
			return false
		}
	}
	return true
}

// randomQuery builds a random formula over d's vocabulary, the same
// shape as the paper-table sweeps (internal/bench).
func randomQuery(rng *rand.Rand, d *db.DB, depth int) *logic.Formula {
	n := d.N()
	var rec func(depth int) *logic.Formula
	rec = func(depth int) *logic.Formula {
		if depth == 0 || rng.Intn(3) == 0 {
			a := logic.Atom(rng.Intn(n))
			if rng.Intn(2) == 0 {
				return logic.Not(logic.AtomF(a))
			}
			return logic.AtomF(a)
		}
		l, r := rec(depth-1), rec(depth-1)
		switch rng.Intn(3) {
		case 0:
			return logic.And(l, r)
		case 1:
			return logic.Or(l, r)
		default:
			return logic.Implies(l, r)
		}
	}
	return rec(depth)
}

func litText(d *db.DB, a logic.Atom, neg bool) string {
	if neg {
		return "-" + d.Voc.Name(a)
	}
	return d.Voc.Name(a)
}

// ---------------------------------------------------------------------
// cold-cells

// coldCell is one (table, semantics, problem) row of the paper-table
// sweep (internal/bench/tables.go) with its full-scale sizes and its
// instance family.
type coldCell struct {
	table int
	sem   string
	kind  string // "literal" | "formula" | "model"
	sizes []int
	// mk returns the database and, for inference cells, the query over
	// the round-tripped vocabulary.
	mk func(rng *rand.Rand, size int) (*db.DB, string, bool)
}

func (c coldCell) name() string { return fmt.Sprintf("T%d/%s/%s", c.table, c.sem, c.kind) }

// Instance families, as in internal/bench/tables.go.
func qbfNegW(rng *rand.Rand, size int) (*db.DB, string, bool) {
	q := qbf.Random3DNF(rng, size, size, 2*size)
	d, w, err := reduction.MMNegLiteralFromQBF(q)
	if err != nil {
		return nil, "", false
	}
	rt, _ := roundTrip(d)
	if rt == nil {
		return nil, "", false
	}
	return rt, "-" + d.Voc.Name(w), true
}

func randomNegLit(cfg func(int) gen.Config) func(*rand.Rand, int) (*db.DB, string, bool) {
	return func(rng *rand.Rand, size int) (*db.DB, string, bool) {
		rt, _ := roundTrip(gen.Random(rng, cfg(size)))
		if rt == nil {
			return nil, "", false
		}
		return rt, litText(rt, logic.Atom(rng.Intn(rt.N())), true), true
	}
}

func stratNegLit(rng *rand.Rand, size int) (*db.DB, string, bool) {
	rt, _ := roundTrip(gen.RandomStratified(rng, size, 2*size, 3))
	if rt == nil {
		return nil, "", false
	}
	return rt, litText(rt, logic.Atom(rng.Intn(rt.N())), true), true
}

func randomFormula(mk func(*rand.Rand, int) *db.DB, depth int) func(*rand.Rand, int) (*db.DB, string, bool) {
	return func(rng *rand.Rand, size int) (*db.DB, string, bool) {
		rt, _ := roundTrip(mk(rng, size))
		if rt == nil {
			return nil, "", false
		}
		return rt, randomQuery(rng, rt, depth).String(rt.Voc), true
	}
}

func unsatFormula(rng *rand.Rand, size int) (*db.DB, string, bool) {
	d, f := reduction.FormulaInferenceFromUNSAT(reduction.RandomCNF(rng, size, 4*size, 3), size)
	rt, _ := roundTrip(d)
	if rt == nil {
		return nil, "", false
	}
	return rt, f.String(d.Voc), true
}

func unsatICLit(rng *rand.Rand, size int) (*db.DB, string, bool) {
	d, w := reduction.LiteralInferenceFromUNSATWithICs(reduction.RandomCNF(rng, size, 4*size, 3), size)
	rt, _ := roundTrip(d)
	if rt == nil {
		return nil, "", false
	}
	return rt, "-" + d.Voc.Name(w), true
}

func dbOnly(mk func(*rand.Rand, int) *db.DB) func(*rand.Rand, int) (*db.DB, string, bool) {
	return func(rng *rand.Rand, size int) (*db.DB, string, bool) {
		rt, _ := roundTrip(mk(rng, size))
		return rt, "", rt != nil
	}
}

func positiveDB(rng *rand.Rand, n int) *db.DB   { return gen.Random(rng, gen.Positive(n, 2*n)) }
func withICDB(rng *rand.Rand, n int) *db.DB     { return gen.Random(rng, gen.WithIntegrity(n, 2*n)) }
func noICNegDB(rng *rand.Rand, n int) *db.DB    { return gen.Random(rng, gen.NormalNoIC(n, 2*n)) }
func stratifiedDB(rng *rand.Rand, n int) *db.DB { return gen.RandomStratified(rng, n, 2*n, 3) }
func satFamily(rng *rand.Rand, n int) *db.DB {
	return reduction.ExistsModelFromSAT(reduction.RandomCNF(rng, n, int(4.2*float64(n)), 3), n)
}
func dsmQBF(rng *rand.Rand, n int) *db.DB {
	d, err := reduction.DSMExistsFromQBF(qbf.Random3DNF(rng, n, n, 2*n))
	if err != nil {
		return nil
	}
	return d
}

// coldCells lists every cell of the reconstructed Tables 1 and 2 with
// the full-scale sizes of the paper-table sweep. Each gets equal
// weight in cold-cells; none is resized.
func coldCells() []coldCell {
	var cs []coldCell
	add := func(table int, sem, kind string, sizes []int, mk func(*rand.Rand, int) (*db.DB, string, bool)) {
		cs = append(cs, coldCell{table, sem, kind, sizes, mk})
	}
	mid, full2 := []int{2, 3, 4, 5, 6}, []int{8, 12, 16, 20}
	// Table 1: positive DDBs.
	for _, s := range []string{"GCWA", "EGCWA", "ECWA", "CCWA", "ICWA", "PERF", "DSM"} {
		add(1, s, "literal", mid, qbfNegW)
	}
	add(1, "PDSM", "literal", []int{1, 2}, qbfNegW)
	for _, s := range []string{"DDR", "PWS"} {
		add(1, s, "literal", []int{100, 200, 400, 800, 1600}, randomNegLit(func(n int) gen.Config { return gen.Positive(n, 2*n) }))
	}
	for _, s := range []string{"GCWA", "CCWA"} {
		add(1, s, "formula", []int{4, 6, 8, 10, 12, 14}, randomFormula(positiveDB, 2))
	}
	for _, s := range []string{"EGCWA", "ECWA", "ICWA", "PERF", "DSM"} {
		add(1, s, "formula", full2, randomFormula(positiveDB, 3))
	}
	add(1, "PDSM", "formula", []int{4, 6, 8}, randomFormula(positiveDB, 3))
	add(1, "DDR", "formula", []int{8, 16, 32, 64}, unsatFormula)
	add(1, "PWS", "formula", []int{4, 6, 8}, unsatFormula)
	for _, s := range []string{"GCWA", "DDR", "PWS", "EGCWA", "CCWA", "ECWA", "ICWA", "PERF", "DSM", "PDSM"} {
		add(1, s, "model", []int{100, 400, 1600}, dbOnly(positiveDB))
	}
	// Table 2: integrity clauses, negation where defined.
	for _, s := range []string{"GCWA", "EGCWA", "ECWA", "CCWA"} {
		add(2, s, "literal", full2, randomNegLit(func(n int) gen.Config { return gen.WithIntegrity(n, 2*n) }))
	}
	add(2, "ICWA", "literal", []int{8, 12, 16}, stratNegLit)
	noICNeg := randomNegLit(func(n int) gen.Config { return gen.NormalNoIC(n, 2*n) })
	add(2, "PERF", "literal", []int{6, 9, 12}, noICNeg)
	add(2, "DSM", "literal", []int{6, 9, 12}, noICNeg)
	add(2, "PDSM", "literal", []int{4, 6, 8}, noICNeg)
	add(2, "DDR", "literal", []int{8, 16, 24, 32}, unsatICLit)
	add(2, "PWS", "literal", []int{3, 5, 7}, unsatICLit)
	for _, s := range []string{"GCWA", "CCWA"} {
		add(2, s, "formula", []int{4, 6, 8, 10, 12, 14}, randomFormula(withICDB, 2))
	}
	for _, s := range []string{"EGCWA", "ECWA"} {
		add(2, s, "formula", full2, randomFormula(withICDB, 3))
	}
	add(2, "ICWA", "formula", []int{8, 12, 16}, randomFormula(stratifiedDB, 3))
	for _, s := range []string{"PERF", "DSM"} {
		add(2, s, "formula", []int{6, 9, 12}, randomFormula(noICNegDB, 3))
	}
	add(2, "PDSM", "formula", []int{4, 6, 8}, randomFormula(noICNegDB, 3))
	add(2, "DDR", "formula", []int{10, 20, 40}, randomFormula(withICDB, 3))
	add(2, "PWS", "formula", []int{4, 6, 8}, randomFormula(withICDB, 3))
	for _, s := range []string{"GCWA", "EGCWA", "CCWA", "ECWA", "DDR"} {
		add(2, s, "model", []int{10, 20, 40}, dbOnly(satFamily))
	}
	add(2, "PWS", "model", []int{3, 5, 7}, dbOnly(satFamily))
	add(2, "ICWA", "model", []int{20, 50, 100, 200}, dbOnly(func(rng *rand.Rand, n int) *db.DB { return gen.RandomStratified(rng, n, 2*n, 4) }))
	add(2, "DSM", "model", []int{2, 3, 4, 5}, dbOnly(dsmQBF))
	add(2, "PERF", "model", []int{6, 9, 12}, dbOnly(noICNegDB))
	add(2, "PDSM", "model", []int{4, 6, 8}, dbOnly(noICNegDB))
	return cs
}

// coldRequest draws one never-seen applicable request: a uniform cell,
// a uniform full-scale size, a fresh instance. Inapplicable draws (the
// semantics is undefined on the drawn database) are redrawn from the
// same cell and size, never skipped, so every cell keeps its weight.
func coldRequest(rng *rand.Rand, cells []coldCell) request {
	c := cells[rng.Intn(len(cells))]
	size := c.sizes[rng.Intn(len(c.sizes))]
	for {
		d, q, ok := c.mk(rng, size)
		if !ok || !applicable(c.sem, d) {
			continue
		}
		return newRequest(fmt.Sprintf("%s/%d", c.name(), size), c.sem, c.kind, d.String(), q)
	}
}

func genCold(seed int64, n int) *workload {
	cells := coldCells()
	w := &workload{Name: "cold-cells"}
	// The warm-up set comes from a disjoint stream, so no timed request
	// repeats a database the server has seen.
	wrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < warmCount; i++ {
		w.Warm = append(w.Warm, coldRequest(wrng, cells))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		w.Timed = append(w.Timed, coldRequest(rng, cells))
	}
	number(w.Warm, -len(w.Warm))
	number(w.Timed, 0)
	return w
}

// ---------------------------------------------------------------------
// enum-stream

// streamRequest draws a never-seen random positive DB sized for tens
// to about a hundred models per stream. Minimal-model streams (80%)
// get four disjunctive facts over disjoint atoms, whose head choices
// multiply the minimal models, plus random definite rules and a few
// overlapping disjunctive rules; all-model streams (20%) get a small
// random positive DB whose unconstrained atoms multiply the models.
// Both keep the per-stream cost's spread narrow, so a run's mean
// settles within one window.
func streamRequest(rng *rand.Rand) request {
	for {
		var d *db.DB
		kind := "minimal"
		if rng.Intn(5) == 0 {
			kind = "models"
			n := 8 + rng.Intn(3)
			d = gen.Random(rng, gen.Config{Atoms: n, Clauses: n, MaxHead: 2, MaxBody: 1, FactProb: 0.2})
		} else {
			d = blockDB(rng, 4, 8, 3)
		}
		rt, text := roundTrip(d)
		if rt == nil {
			continue
		}
		return newRequest(fmt.Sprintf("stream/%s/%d", kind, rt.N()), "", kind, text, "")
	}
}

// blockDB builds facts disjunctive facts of 2–3 fresh atoms each, then
// rules definite rules each deriving a fresh atom from an earlier one,
// then overlap disjunctive rules over random atoms.
func blockDB(rng *rand.Rand, facts, rules, overlap int) *db.DB {
	d := db.New()
	var atoms []logic.Atom
	fresh := func() logic.Atom {
		a := d.Voc.Intern(fmt.Sprintf("p%d", len(atoms)))
		atoms = append(atoms, a)
		return a
	}
	pick := func() logic.Atom { return atoms[rng.Intn(len(atoms))] }
	for i := 0; i < facts; i++ {
		head := []logic.Atom{fresh(), fresh()}
		if rng.Intn(2) == 0 {
			head = append(head, fresh())
		}
		d.AddFact(head...)
	}
	for i := 0; i < rules; i++ {
		body := pick()
		d.AddRule([]logic.Atom{fresh()}, []logic.Atom{body}, nil)
	}
	for i := 0; i < overlap; i++ {
		d.AddRule([]logic.Atom{pick(), pick()}, []logic.Atom{pick()}, nil)
	}
	return d
}

func genStream(seed int64, n int) *workload {
	w := &workload{Name: "enum-stream"}
	wrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < warmCount; i++ {
		w.Warm = append(w.Warm, streamRequest(wrng))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		w.Timed = append(w.Timed, streamRequest(rng))
	}
	number(w.Warm, -len(w.Warm))
	number(w.Timed, 0)
	return w
}

// ---------------------------------------------------------------------
// hot-session

// hotDB is one pool database with the semantics the pool serves on it.
type hotDB struct {
	d    *db.DB
	text string
	frag session.Fragment
	sems []string
}

// Pool fragments, in rotation: half the pool is general (served by
// warm sessions), the rest split over the fast-path fragments. The
// session compiler's own classifier decides membership, so a drawn
// database lands in the fragment it was drawn for or is redrawn.
var hotFrags = []session.Fragment{session.FragGeneral, session.FragDefinite, session.FragGeneral, session.FragHorn, session.FragGeneral, session.FragStratNormal}

func hotCandidate(rng *rand.Rand, frag session.Fragment, n int) *db.DB {
	switch frag {
	case session.FragDefinite:
		return gen.Random(rng, gen.Config{Atoms: n, Clauses: n + n/2, MaxHead: 1, MaxBody: 2, FactProb: 0.3})
	case session.FragHorn:
		return gen.Random(rng, gen.Config{Atoms: n, Clauses: n + n/2, MaxHead: 1, MaxBody: 2, FactProb: 0.3, IntegrityPr: 0.05})
	case session.FragStratNormal:
		d := gen.RandomStratified(rng, n, n+n/2, 3)
		for i := range d.Clauses {
			d.Clauses[i].Head = d.Clauses[i].Head[:1]
		}
		return d
	default:
		if rng.Intn(2) == 0 {
			return gen.Random(rng, gen.Positive(n, n))
		}
		return gen.Random(rng, gen.WithIntegrity(n, n))
	}
}

// hotSems are the semantics served per fragment: the session fast-path
// allowlists on definite/Horn/stratified-normal, the warm
// incremental-engine family on the general fragment.
var hotSems = map[session.Fragment][]string{
	session.FragDefinite:    {"GCWA", "DDR", "PWS", "DSM", "PERF"},
	session.FragHorn:        {"EGCWA", "CWA", "DDR", "DSM"},
	session.FragStratNormal: {"DSM", "PERF", "ICWA"},
	session.FragGeneral:     {"GCWA", "CCWA", "EGCWA", "ECWA", "CIRC"},
}

func hotPool(rng *rand.Rand) []hotDB {
	var pool []hotDB
	for len(pool) < hotPoolDBs {
		// Slot i has a fixed fragment and a fixed size in 16..32 atoms,
		// so the seed varies the databases' contents, not the pool's
		// shape.
		i := len(pool)
		frag := hotFrags[i%len(hotFrags)]
		n := 16 + 16*i/(hotPoolDBs-1)
		rt, text := roundTrip(hotCandidate(rng, frag, n))
		if rt == nil || rt.N() < n-2 {
			continue
		}
		comp := session.Compile(text, rt)
		if comp.Frag != frag {
			continue
		}
		h := hotDB{d: rt, text: text, frag: frag}
		for _, s := range hotSems[frag] {
			if applicable(s, rt) {
				h.sems = append(h.sems, s)
			}
		}
		pool = append(pool, h)
	}
	return pool
}

// maxHotQueries bounds the distinct queries per pair.
const maxHotQueries = 9

// hotQueries lists the distinct queries of one (DB, semantics) pair:
// positive and negative literals over a fixed atom sample, a model
// query, and — where the warm engine serves formulas (the E-family)
// or the fast path answers them — a few random formulas.
func hotQueries(rng *rand.Rand, h hotDB, sem string) []request {
	cell := fmt.Sprintf("%s/%s", h.frag, sem)
	var out []request
	for i := 0; i < 6; i++ {
		a := logic.Atom(rng.Intn(h.d.N()))
		out = append(out, newRequest(cell, sem, "literal", h.text, litText(h.d, a, rng.Intn(2) == 0)))
	}
	out = append(out, newRequest(cell, sem, "model", h.text, ""))
	if h.frag != session.FragGeneral || session.WarmEligible(sem, session.KindFormula) {
		for i := 0; i < 2; i++ {
			out = append(out, newRequest(cell, sem, "formula", h.text, randomQuery(rng, h.d, 2).String(h.d.Voc)))
		}
	}
	return out
}

// genHot builds the pool, the per-pair query lists, a warm-up that
// compiles every pool DB and opens every pair's session (its first
// query), and a Zipf-skewed draw over all distinct queries. Popularity
// ranks interleave the pairs (rank r is query r÷P of pair r mod P), so
// every seed spreads the skew over the pool the same way.
func genHot(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{Name: "hot-session"}
	var lists [][]request
	for _, h := range hotPool(rng) {
		for _, s := range h.sems {
			qs := hotQueries(rng, h, s)
			w.Warm = append(w.Warm, qs[0])
			lists = append(lists, qs)
			w.Pairs++
		}
	}
	var items []request
	for q := 0; q < maxHotQueries; q++ {
		for _, qs := range lists {
			if q < len(qs) {
				items = append(items, qs[q])
			}
		}
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(items)-1))
	for i := 0; i < hotDraws; i++ {
		w.Timed = append(w.Timed, items[z.Uint64()])
	}
	number(w.Warm, -len(w.Warm))
	number(w.Timed, 0)
	return w
}

// bodyDigest summarises a request list for the same-seed tests.
func bodyDigest(rs []request) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Path)
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	return b.String()
}
