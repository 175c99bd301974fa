package main

import (
	"math"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/session"
)

func TestSameSeedSameBodies(t *testing.T) {
	gens := map[string]func(seed int64) *workload{
		"hot-session": genHot,
		"cold-cells":  func(seed int64) *workload { return genCold(seed, 300) },
		"enum-stream": func(seed int64) *workload { return genStream(seed, 300) },
	}
	for name, g := range gens {
		a, b, c := g(1), g(1), g(2)
		da, db2, dc := bodyDigest(append(a.Warm, a.Timed...)), bodyDigest(append(b.Warm, b.Timed...)), bodyDigest(append(c.Warm, c.Timed...))
		if da != db2 {
			t.Errorf("%s: seed 1 twice gave different request bodies", name)
		}
		if da == dc {
			t.Errorf("%s: seeds 1 and 2 gave identical request bodies", name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 1.75}, {50, 2.5}, {99, 3.97}, {100, 4}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},    // overlaps b
		{Name: "b", Parent: 0, Start: 30, End: 60},    // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},   // clipped to the parent
		{Name: "a1", Parent: 1, Start: 15, End: 20},   // nested in a
		{Name: "a2", Parent: 1, Start: 18, End: 25},   // overlaps a1
		{Name: "d", Parent: 0, Start: 60, End: 70},    // touches b
		{Name: "e", Parent: -1, Start: 200, End: 210}, // a second root
	}
	want := []int64{
		100 - (70 - 10) - (100 - 90), // children cover [10,70] and [90,100]
		30 - (25 - 15),               // a1 ∪ a2 = [15,25]
		30, 30, 5, 7, 10, 10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	lt := summarise(spans)
	if m := lt.spanMedian("a"); m != 20e-6 {
		t.Errorf("spanMedian(a) = %v ms, want 2e-5", m)
	}
	if m := lt.spanMedian("missing"); m != 0 {
		t.Errorf("spanMedian of an absent span = %v, want 0", m)
	}
}

// TestRequestsApplicable checks that no generated request violates its
// semantics' applicability (core.Info flags and, for ICWA,
// stratifiability), that queries parse against the database the server
// will parse, and that every paper-table cell is generated.
func TestRequestsApplicable(t *testing.T) {
	cells := map[string]bool{}
	for _, w := range []*workload{genHot(1), genHot(2), genCold(1, 600), genCold(3, 600), genStream(1, 100)} {
		for _, r := range append(w.Warm, w.Timed...) {
			p, err := parseRequest(r)
			if err != nil {
				t.Fatalf("%s request %d (%s): %v", w.Name, r.ID, r.Cell, err)
			}
			if r.stream() {
				if !p.d.IsPositive() {
					t.Errorf("stream request %d is not a positive database", r.ID)
				}
				continue
			}
			if !applicable(r.Sem, p.d) {
				t.Errorf("%s request %d: %s is not applicable to its database (%s)", w.Name, r.ID, r.Sem, r.Cell)
			}
			if w.Name == "cold-cells" {
				cells[r.Cell[:len(r.Cell)-len(sizeSuffix(r.Cell))]] = true
			}
		}
	}
	if want := len(coldCells()); len(cells) != want {
		t.Errorf("cold-cells generated %d distinct cells, want all %d", len(cells), want)
	}
}

func sizeSuffix(cell string) string {
	for i := len(cell) - 1; i >= 0; i-- {
		if cell[i] == '/' {
			return cell[i:]
		}
	}
	return ""
}

// TestHotPool checks the hot working set: every fragment is present,
// the pool's warm sessions fit the session manager's default bound,
// and every pair is answered by the session layer (fast path or warm
// engine), never by the fresh path.
func TestHotPool(t *testing.T) {
	w := genHot(1)
	frags := map[session.Fragment]bool{}
	warmPairs := 0
	for _, r := range w.Warm {
		d, err := db.Parse(r.DB)
		if err != nil {
			t.Fatal(err)
		}
		comp := session.Compile(r.DB, d)
		frags[comp.Frag] = true
		kind := sessionKind(r.Kind)
		fast := session.FastEligible(comp, r.Sem, kind)
		if !fast {
			warmPairs++
		}
		if !fast && !session.WarmEligible(r.Sem, kind) {
			t.Errorf("pair %s: neither fast-path nor warm-session eligible", r.Cell)
		}
	}
	if len(frags) != 4 {
		t.Errorf("pool covers %d fragments, want all 4", len(frags))
	}
	if warmPairs > 64 {
		t.Errorf("%d warm (DB, semantics) pairs exceed the 64-session default", warmPairs)
	}
}

func TestCohortRefusesMixed(t *testing.T) {
	base := cohort{Source: "a", Bench: "b", GoVersion: "go1", GOMAXPROCS: 2, NProc: 2, CPUModel: "x", Workload: "hot-session", Seconds: 10, Seed: 1}
	rec := func(mut func(*cohort)) record {
		c := base
		mut(&c)
		return record{Cohort: c}
	}
	same := []record{rec(func(*cohort) {}), rec(func(c *cohort) { c.Source = "z" })}
	if err := checkCohorts(same); err != nil {
		t.Errorf("same cohort refused: %v", err)
	}
	for name, mut := range map[string]func(*cohort){
		"GOMAXPROCS": func(c *cohort) { c.GOMAXPROCS = 1 },
		"Go version": func(c *cohort) { c.GoVersion = "go2" },
		"CPU":        func(c *cohort) { c.CPUModel = "y" },
		"bench code": func(c *cohort) { c.Bench = "c" },
		"seeds":      func(c *cohort) { c.Source, c.Seed = "z", 2 },
	} {
		if err := checkCohorts([]record{rec(func(*cohort) {}), rec(mut)}); err == nil {
			t.Errorf("mixed %s accepted", name)
		}
	}
}
