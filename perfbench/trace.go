package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"disjunct/internal/cache"
	"disjunct/internal/db"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/plan"
	"disjunct/internal/session"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out after the run.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by its children. Overlapping
// children are merged first, and children are clipped to the parent,
// so no instant is subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// mirror replays a served request through the layers' public entry
// points, mirroring the route the server reported: parse and compile
// on a compile-cache miss (the server's Lookup/Intern), plan.Decide,
// then the session layer for fast/session answers, a fresh semantics
// engine for fresh/brute/portfolio answers, or the model iterator for
// streams. Its caches start in the same state as the server's and see
// the same request sequence.
type mirror struct {
	t       *tracer
	keep    bool // cache compiled artifacts (hot pool); cold texts never repeat
	comps   map[string]*session.Compiled
	mgr     *session.Manager
	planner *plan.Planner
	fresh   map[string]bool // hot queries already replayed on the fresh engines
	np      []float64       // NP calls of each fresh semantics replay
	npMS    []float64       // and its self time
}

func newMirror(t *tracer, keep bool) *mirror {
	return &mirror{t: t, keep: keep, comps: map[string]*session.Compiled{},
		mgr: session.NewManager(session.Config{}), planner: plan.New(plan.Config{}), fresh: map[string]bool{}}
}

func sessionKind(kind string) session.Kind {
	switch kind {
	case "literal":
		return session.KindLiteral
	case "formula":
		return session.KindFormula
	}
	return session.KindModel
}

// replay records the spans of one request under root and returns an
// error if a layer call fails where the served request succeeded.
func (m *mirror) replay(r request, o outcome, root int) error {
	t := m.t
	comp, ok := m.comps[r.DB]
	if !ok {
		s := t.begin("db.parse", r.ID, root)
		d, err := db.Parse(r.DB)
		t.end(s)
		if err != nil {
			return err
		}
		s = t.begin("session.compile", r.ID, root)
		comp = session.Compile(r.DB, d)
		t.end(s)
		s = t.begin("cache.canonicalize", r.ID, root)
		cache.Canonicalize(comp.N, comp.CNF)
		t.end(s)
		if m.keep {
			m.comps[r.DB] = comp
		}
	}
	ctx := context.Background()
	if r.stream() {
		eng := models.NewEngineCNF(comp.D, oracle.NewNP(), comp.CNF)
		it := eng.IterateMinimalModels(0)
		if r.Kind == "models" {
			it = eng.IterateModels(0)
		}
		defer it.Close()
		for {
			s := t.begin("models.next", r.ID, root)
			_, err := it.Next(ctx)
			t.end(s)
			if err != nil {
				return nil
			}
		}
	}
	p, err := parseQuery(r, comp.D)
	if err != nil {
		return err
	}
	kind := sessionKind(r.Kind)
	s := t.begin("plan.decide", r.ID, root)
	m.planner.Decide(comp, r.Sem, kind)
	t.end(s)
	switch o.Resp.Path {
	case "fast", "session":
		// The fresh engines, once per distinct query, off the served
		// path: the semantics layer's cost on the same inputs.
		if !m.fresh[string(r.Body)] {
			m.fresh[string(r.Body)] = true
			if err := m.freshDecide(r, p, root); err != nil {
				return err
			}
		}
		req := session.Request{Sem: r.Sem, Kind: kind, Lit: p.lit, F: p.f}
		switch kind {
		case session.KindLiteral:
			req.QueryText = comp.D.Voc.LitString(p.lit)
		case session.KindFormula:
			req.QueryText = p.f.String(comp.D.Voc)
		}
		s = t.begin("session.query."+o.Resp.Path, r.ID, root)
		_, handled := m.mgr.Query(ctx, comp, req)
		t.end(s)
		if !handled {
			return fmt.Errorf("session layer declined a query the server answered on path %q", o.Resp.Path)
		}
	default:
		return m.freshDecide(r, p, root)
	}
	return nil
}

// freshDecide answers the query on a fresh semantics engine and oracle,
// as the server's fresh path does.
func (m *mirror) freshDecide(r request, p parsed, root int) error {
	t := m.t
	ora := oracle.NewNP()
	s := t.begin("semantics."+r.Class+".decide", r.ID, root)
	_, err := decide(r, p, ora)
	t.end(s)
	if err != nil {
		return err
	}
	if c := ora.Counters(); c.NPCalls > 0 {
		m.np = append(m.np, float64(c.NPCalls))
		m.npMS = append(m.npMS, float64(t.spans[s].End-t.spans[s].Start)/1e6)
	}
	return nil
}

// layerTimes summarises a trace: for each span name, every span's self
// time in ms, and per request the summed self time of each name.
type layerTimes struct {
	bySpan map[string][]float64
	byReq  map[string]map[int]float64
	reqs   map[int]bool
}

func summarise(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{bySpan: map[string][]float64{}, byReq: map[string]map[int]float64{}, reqs: map[int]bool{}}
	for i, s := range spans {
		ms := float64(self[i]) / 1e6
		lt.bySpan[s.Name] = append(lt.bySpan[s.Name], ms)
		if lt.byReq[s.Name] == nil {
			lt.byReq[s.Name] = map[int]float64{}
		}
		lt.byReq[s.Name][s.Req] += ms
		lt.reqs[s.Req] = true
	}
	return lt
}

// spanMedian is the median self time (ms) of the named spans, 0 when
// the workload never crosses that boundary.
func (lt layerTimes) spanMedian(name string) float64 {
	if v := lt.bySpan[name]; len(v) > 0 {
		return median(v)
	}
	return 0
}

// reqMedian is the median over all traced requests of the per-request
// self time under a name (0 for requests that never reach it).
func (lt layerTimes) reqMedian(name string) float64 {
	v := make([]float64, 0, len(lt.reqs))
	for req := range lt.reqs {
		v = append(v, lt.byReq[name][req])
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}
