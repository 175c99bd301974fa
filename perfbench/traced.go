package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"disjunct/internal/cluster"
	"disjunct/internal/serve"
)

// hopSample bounds the hot-session requests replayed through a
// one-worker cluster for cluster.hop_ms.
const hopSample = 2000

// tracedRun fills the per-layer metrics. win is the untraced window of
// this run (its server counters h0→h1): response fields, server
// counters and runtime statistics come from it. A second server, set
// up the same way, then serves the same requests while the benchmark
// replays each one through the layers' public entry points and
// records spans; the replay time is excluded from the traced goodput.
func tracedRun(cfg config, m map[string]metric, win window, ok int, h0, h1 serve.Health, v *verifier) (int, error) {
	w, sv, _, err := setup(cfg)
	if err != nil {
		return 0, err
	}
	t := newTracer()
	mir := newMirror(t, w.Name == "hot-session")
	// Warm-ups take the session layer on hot-session and the fresh
	// path elsewhere; the mirror follows, so it opens the same sessions.
	warmPath := ""
	if w.Name == "hot-session" {
		warmPath = "session"
	}
	for _, r := range w.Warm {
		root := t.begin("warm", r.ID, -1)
		err := mir.replay(r, outcome{Resp: answer{Path: warmPath}}, root)
		t.end(root)
		if err != nil {
			sv.stop()
			return 0, fmt.Errorf("warm replay %d: %w", r.ID, err)
		}
	}
	t.spans = t.spans[:0]
	mir.np, mir.npMS, mir.fresh = nil, nil, map[string]bool{}
	c := newClient()
	var replayErr error
	traced := runWindow(w, cfg.seconds, func(r request) (outcome, time.Duration) {
		root := t.begin("request", r.ID, -1)
		h := t.begin("http", r.ID, root)
		o := do(c, sv.url, r)
		t.end(h)
		rp := t.begin("replay", r.ID, root)
		if err := mir.replay(r, o, rp); err != nil && replayErr == nil {
			replayErr = fmt.Errorf("request %d (%s): %w", r.ID, r.Cell, err)
		}
		t.end(rp)
		t.end(root)
		return o, time.Duration(t.spans[rp].End - t.spans[rp].Start)
	})
	closeClient(c)
	sv.stop()
	if replayErr != nil {
		return 0, replayErr
	}
	tracedOK := verifyWindow(v, traced)

	hop := 0.0
	if w.Name == "hot-session" {
		if hop, err = clusterHop(w, v); err != nil {
			return 0, err
		}
	}
	if err := os.MkdirAll(filepath.Join(outDir, "trace"), 0o755); err != nil {
		return 0, err
	}
	spanFile := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.seed))
	if err := t.write(spanFile); err != nil {
		return 0, err
	}
	fmt.Printf("trace: %d spans over %d requests written to %s\n", len(t.spans), len(traced.ex), spanFile)

	lt := summarise(t.spans)
	perLayer(m, win, lt, mir, h0, h1)
	m["cluster.hop_ms"] = metric{hop, "ms"}

	// Attribution: the untraced median minus the sum of the per-layer
	// medians on the request path. cache.canonicalize is left out: the
	// replay calls it again after session.Compile, which already
	// includes it.
	var lat []float64
	for _, e := range win.ex {
		lat = append(lat, e.o.LatMS)
	}
	attributed := 0.0
	for _, name := range sortedKeys(lt.bySpan) {
		if pathLayer(name) {
			attributed += lt.reqMedian(name)
		}
	}
	m["trace.unattributed_ms"] = metric{percentile(lat, 50) - attributed, "ms"}
	untraced := float64(ok) / win.wall.Seconds()
	tracedGoodput := float64(tracedOK) / (traced.wall - traced.excluded).Seconds()
	m["trace.overhead_frac"] = metric{1 - tracedGoodput/untraced, "frac"}
	return len(traced.ex), nil
}

// pathLayer reports whether a span name is a layer on the request's
// blocking path (the replay's own bookkeeping spans are not).
func pathLayer(name string) bool {
	switch {
	case name == "db.parse", name == "session.compile", name == "plan.decide", name == "models.next":
		return true
	case strings.HasPrefix(name, "session.query."), strings.HasPrefix(name, "semantics."):
		return true
	}
	return false
}

// perLayer fills the metrics derived from the untraced window's
// responses and server counters and from the traced spans.
func perLayer(m map[string]metric, win window, lt layerTimes, mir *mirror, h0, h1 serve.Health) {
	var overhead, solve, queue, streamOver []float64
	var np, sigma2, confl float64
	var queries, streamNP, streamModels float64
	routes := map[string]float64{}
	for _, e := range win.ex {
		o := e.o
		if st := o.Stream; st != nil {
			streamOver = append(streamOver, o.LatMS-st.Done.TotalMS)
			np += float64(st.Done.Counters.NPCalls)
			sigma2 += float64(st.Done.Counters.Sigma2Calls)
			confl += float64(st.Done.Counters.SATConfl)
			streamNP += float64(st.Done.Counters.NPCalls)
			streamModels += float64(st.Models)
			continue
		}
		queries++
		overhead = append(overhead, o.LatMS-o.Resp.SolveMS-o.Resp.QueueMS)
		solve = append(solve, o.Resp.SolveMS)
		queue = append(queue, o.Resp.QueueMS)
		np += float64(o.Resp.Counters.NPCalls)
		sigma2 += float64(o.Resp.Counters.Sigma2Calls)
		confl += float64(o.Resp.Counters.SATConfl)
		route := o.Resp.Path
		switch {
		case route == "":
			route = "fresh"
		case strings.HasPrefix(route, "portfolio"):
			route = "portfolio"
		}
		routes[route]++
	}
	n := float64(len(win.ex))
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["serve.overhead_ms"] = metric{med(overhead), "ms"}
	m["serve.solve_ms"] = metric{med(solve), "ms"}
	m["serve.queue_ms"] = metric{med(queue), "ms"}
	m["serve.stream_overhead_ms"] = metric{med(streamOver), "ms"}

	m["db.parse_ms"] = metric{lt.spanMedian("db.parse"), "ms"}
	m["session.compile_ms"] = metric{lt.spanMedian("session.compile"), "ms"}
	m["cache.canonicalize_ms"] = metric{lt.spanMedian("cache.canonicalize"), "ms"}
	var canonFrac []float64
	for req, c := range lt.byReq["session.compile"] {
		if c > 0 {
			canonFrac = append(canonFrac, lt.byReq["cache.canonicalize"][req]/c)
		}
	}
	m["cache.canonicalize_frac"] = metric{med(canonFrac), "frac"}

	s0, s1 := h0.Sessions, h1.Sessions
	m["session.memo_hit_frac"] = metric{frac(float64(s1["memo_hits"]-s0["memo_hits"]), float64(s1["warm_queries"]-s0["warm_queries"])), "frac"}
	m["session.warm_query_ms"] = metric{lt.spanMedian("session.query.session"), "ms"}
	m["session.checkout_timeouts"] = metric{float64(s1["checkout_timeouts"] - s0["checkout_timeouts"]), "count"}

	m["plan.decide_us"] = metric{lt.spanMedian("plan.decide") * 1000, "us"}
	for _, r := range []string{"fast", "session", "fresh", "brute", "portfolio"} {
		m["plan.route."+r+"_frac"] = metric{frac(routes[r], queries), "frac"}
	}

	m["oracle.np_calls_per_req"] = metric{np / n, "count"}
	m["oracle.sigma2_calls_per_req"] = metric{sigma2 / n, "count"}
	m["oracle.conflicts_per_req"] = metric{confl / n, "count"}

	for _, cell := range []string{"P", "NP", "coNP", "Pi2p", "Sigma2p"} {
		m["semantics."+cell+".decide_ms"] = metric{lt.spanMedian("semantics." + cell + ".decide"), "ms"}
	}
	var npSum, msSum float64
	for i := range mir.np {
		npSum += mir.np[i]
		msSum += mir.npMS[i]
	}
	m["semantics.ms_per_np_call"] = metric{frac(msSum, npSum), "ms"}

	m["models.next_us"] = metric{lt.spanMedian("models.next") * 1000, "us"}
	m["models.np_calls_per_model"] = metric{frac(streamNP, streamModels), "count"}

	m["runtime.allocs_per_req"] = metric{float64(win.mem1.Mallocs-win.mem0.Mallocs) / n, "count"}
	m["runtime.alloc_bytes_per_req"] = metric{float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc) / n, "B"}
	m["runtime.gc_per_1k_req"] = metric{float64(win.mem1.NumGC-win.mem0.NumGC) * 1000 / n, "count"}
}

// clusterHop replays a hot-session sample through a one-worker local
// cluster: once through the router to settle the worker's memo, then
// each request through the router and straight to the worker in turn.
// The result is the difference of the two medians.
func clusterHop(w *workload, v *verifier) (float64, error) {
	l := cluster.StartLocal(1, serve.Config{Planner: true}, cluster.RouterConfig{})
	defer l.Close()
	if err := warm(l.URL(), w.Warm); err != nil {
		return 0, fmt.Errorf("cluster warm-up: %w", err)
	}
	sample := w.Timed
	if len(sample) > hopSample {
		sample = sample[:hopSample]
	}
	c := newClient()
	defer closeClient(c)
	for _, r := range sample {
		do(c, l.URL(), r)
	}
	var routed, direct []float64
	for _, r := range sample {
		a := do(c, l.URL(), r)
		b := do(c, l.Workers[0].URL(), r)
		if !v.check(r, a) || !v.check(r, b) {
			return 0, fmt.Errorf("cluster sample request %d failed verification", r.ID)
		}
		routed = append(routed, a.LatMS)
		direct = append(direct, b.LatMS)
	}
	return median(routed) - median(direct), nil
}
