// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs an in-process serve.Server (planner on, which
// turns sessions on; everything else at its defaults) behind a
// loopback listener and drives it with one keep-alive client in a
// closed loop, so admission never queues, the planner's bulkhead never
// sheds and no two requests coalesce: every outcome depends only on
// the seed. Each workload is pre-generated from --seed before timing
// starts, every answer is verified against a direct library call after
// the timed window, and the last line of standard output is one JSON
// result.
//
//	go run . --workload hot-session --seed 1 --seconds 10 --trace 0
//	go run . compare .bench_build/results/*.json
//
// --trace 1 adds a traced replay of the same requests that records
// spans around the layers' public entry points and prints per-layer
// metrics instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"disjunct/internal/serve"

	_ "disjunct/internal/semantics/all"
)

// setupReps is how many times a run sets up (generate, start, warm);
// setup_s is the median.
const setupReps = 5

// outDir holds result records and span dumps, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "hot-session | cold-cells | enum-stream")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced per-layer run")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if !workloads[cfg.workload] {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want hot-session, cold-cells or enum-stream)\n", cfg.workload)
		os.Exit(2)
	}
	os.Exit(run(cfg))
}

// defaultSeed and heldOutSeed are recorded in BENCHMARK.json: the
// held-out seed is kept for confirming gain claims.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// exchange is one timed request with its outcome.
type exchange struct {
	r  *request
	o  outcome
	at time.Duration // completion, from the window's start
	ok bool          // verified definite answer (set after the window)
}

// window is one closed-loop timed window.
type window struct {
	ex        []exchange
	wall      time.Duration
	excluded  time.Duration // traced runs: time spent in replay calls
	cpu       time.Duration
	maxRSSKB  int64
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	exhausted bool
}

// setup generates the workload, starts a server and warms it up.
func setup(cfg config) (*workload, *server, time.Duration, error) {
	start := time.Now()
	w := genWorkload(cfg.workload, cfg.seed, cfg.seconds)
	sv, err := startServer(serve.Config{Planner: true})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := warm(sv.url, w.Warm); err != nil {
		sv.stop()
		return nil, nil, 0, err
	}
	return w, sv, time.Since(start), nil
}

func warm(base string, rs []request) error {
	c := newClient()
	defer closeClient(c)
	for _, r := range rs {
		if o := do(c, base, r); !o.definite(r.stream()) {
			return fmt.Errorf("warm-up request %d (%s) failed: %s %s", r.ID, r.Cell, o.Err, o.Resp.Verdict)
		}
	}
	return nil
}

func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss)
}

// runWindow sends the timed requests in order, one at a time, until
// the window closes. hot-session wraps around its draw sequence; the
// cold workloads stop early if they run out of never-seen requests.
// send performs one exchange and returns the time it spent outside the
// request path (traced runs), which is excluded from the window.
func runWindow(w *workload, seconds int, send func(request) (outcome, time.Duration)) window {
	// Capacity up front: a doubling append would make the peak RSS
	// depend on where the request count falls between powers of two.
	capacity := len(w.Timed)
	if w.Name == "hot-session" {
		capacity = hotCapacity
	}
	win := window{ex: make([]exchange, 0, capacity)}
	runtime.GC()
	runtime.ReadMemStats(&win.mem0)
	cpu0, _ := rusage()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if i >= len(w.Timed) && w.Name != "hot-session" {
			win.exhausted = true
			break
		}
		r := &w.Timed[i%len(w.Timed)]
		o, excl := send(*r)
		win.excluded += excl
		win.ex = append(win.ex, exchange{r: r, o: o, at: time.Since(start)})
	}
	win.wall = time.Since(start)
	cpu1, rss := rusage()
	runtime.ReadMemStats(&win.mem1)
	win.cpu, win.maxRSSKB = cpu1-cpu0, rss
	return win
}

func health(base string) (serve.Health, error) {
	var h serve.Health
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config) int {
	var setups []float64
	var w *workload
	var sv *server
	for i := 0; i < setupReps; i++ {
		if sv != nil {
			sv.stop()
		}
		var d time.Duration
		var err error
		if w, sv, d, err = setup(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("workload %s seed %d: %d warm-up requests, %d pre-generated timed requests", w.Name, cfg.seed, len(w.Warm), len(w.Timed))
	if w.Pairs > 0 {
		fmt.Printf(", %d (DB, semantics) pairs", w.Pairs)
	}
	fmt.Println()

	h0, err := health(sv.url)
	if err != nil {
		sv.stop()
		fmt.Fprintln(os.Stderr, "perfbench: healthz:", err)
		return 1
	}
	c := newClient()
	win := runWindow(w, cfg.seconds, func(r request) (outcome, time.Duration) { return do(c, sv.url, r), 0 })
	closeClient(c)
	h1, err := health(sv.url)
	sv.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: healthz:", err)
		return 1
	}

	v := newVerifier()
	vstart := time.Now()
	ok := verifyWindow(v, win)
	fmt.Printf("timing: set-up median %.3f s of %d, window %.2f s, verification %.2f s\n",
		median(setups), setupReps, win.wall.Seconds(), time.Since(vstart).Seconds())
	metrics := map[string]metric{}
	attempted := len(win.ex)
	if !cfg.trace {
		endToEnd(metrics, win, ok, median(setups))
	} else {
		n, err := tracedRun(cfg, metrics, win, ok, h0, h1, v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 1
		}
		attempted += n
	}
	return report(cfg, win, v, attempted, metrics)
}

// verifyWindow checks every exchange and returns how many were
// verified definite answers.
func verifyWindow(v *verifier, win window) int {
	ok := 0
	for i := range win.ex {
		if win.ex[i].ok = v.check(*win.ex[i].r, win.ex[i].o); win.ex[i].ok {
			ok++
		}
	}
	return ok
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(m map[string]metric, win window, ok int, setupS float64) {
	var lat, first []float64
	for _, e := range win.ex {
		lat = append(lat, e.o.LatMS)
		first = append(first, e.o.FirstMS)
	}
	n := float64(len(win.ex))
	m["goodput_rps"] = metric{groupRate(win, func(e exchange) float64 { return b2f(e.ok) }), "1/s"}
	m["latency_p50_ms"] = metric{percentile(lat, 50), "ms"}
	m["latency_p99_ms"] = metric{groupP99(lat), "ms"}
	m["ok_frac"] = metric{float64(ok) / n, "frac"}
	m["cpu_ms_per_req"] = metric{float64(win.cpu) / float64(time.Millisecond) / n, "ms"}
	m["rss_mb"] = metric{float64(win.maxRSSKB) / 1024, "MiB"}
	m["setup_s"] = metric{setupS, "s"}
	m["rows_per_s"] = metric{groupRate(win, rows), "1/s"}
	m["ttfr_p50_ms"] = metric{percentile(first, 50), "ms"}
	g := p99Groups(len(lat))
	fmt.Printf("latency: %d samples, p50 %.4f ms; p99 %.4f ms over the whole window, %.4f ms as the median of %d groups of %d samples (%d above each group's p99)\n",
		len(lat), percentile(lat, 50), percentile(lat, 99), groupP99(lat), g, len(lat)/g, len(lat)/g/100)
}

// rows counts the answer rows of a verified exchange: its model rows
// on a stream, the one verdict document otherwise.
func rows(e exchange) float64 {
	switch {
	case !e.ok:
		return 0
	case e.r.stream():
		return float64(e.o.Stream.Models)
	}
	return 1
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// hotCapacity bounds the exchanges one hot-session window records
// without reallocating (about 1.6 times what the reference machine
// completes in a 20-second window).
const hotCapacity = 300000

// rateGroups is how many consecutive groups of exchanges a window's
// rates are computed over.
const rateGroups = 20

// groupRate is the median, over rateGroups consecutive equal-sized
// groups of exchanges, of the units completed in the group per second
// of the group's wall time, where f counts the units of one exchange.
// A shared machine stalls the loop in bursts; the median group is
// steady where the whole-window mean is not.
func groupRate(win window, f func(exchange) float64) float64 {
	size := len(win.ex) / rateGroups
	if size == 0 {
		size = len(win.ex)
	}
	var rates []float64
	var prev time.Duration
	for lo := 0; lo+size <= len(win.ex); lo += size {
		units := 0.0
		for _, e := range win.ex[lo : lo+size] {
			units += f(e)
		}
		end := win.ex[lo+size-1].at
		if end > prev {
			rates = append(rates, units/(end-prev).Seconds())
		}
		prev = end
	}
	if len(rates) == 0 {
		return 0
	}
	return median(rates)
}

// p99Groups is how many consecutive groups the p99 is taken over: as
// many as keep at least 1,000 samples (ten beyond the p99) in each, at
// most rateGroups, at least one.
func p99Groups(n int) int {
	return max(1, min(rateGroups, n/1000))
}

// groupP99 is the median over consecutive groups of requests of each
// group's p99 latency: a burst of machine stalls lifts the tail of the
// groups it falls in, not the typical group.
func groupP99(lat []float64) float64 {
	g := p99Groups(len(lat))
	size := len(lat) / g
	var p99s []float64
	for i := 0; i < g; i++ {
		p99s = append(p99s, percentile(lat[i*size:(i+1)*size], 99))
	}
	return median(p99s)
}

// report prints the cohort line and the result, writes the result
// record, and returns the exit code: nonzero when any answer failed
// verification.
func report(cfg config, win window, v *verifier, attempted int, metrics map[string]metric) int {
	failed := len(v.Failures)
	for i, f := range v.Failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "… and %d more\n", failed-20)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	if win.exhausted {
		fmt.Println("note: the window consumed every pre-generated request and closed early")
	}
	fmt.Printf("verification: %d answers checked against direct library calls, %d also against refsem, %d divergent, %d failed\n",
		attempted, v.RefsemChecked, v.Divergent, failed)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	co := currentCohort(cfg)
	line, _ := json.Marshal(co)
	fmt.Printf("cohort %s\n", line)
	if err := writeRecord(record{Cohort: co, Result: res}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result record:", err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if failed > 0 {
		return 1
	}
	return 0
}

func writeRecord(rec record) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if rec.Cohort.Trace {
		t = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Cohort.Workload, rec.Cohort.Seed, t, time.Now().UnixNano())
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// sortedKeys is used for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
