package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// cohort tags every result. Wall-clock figures compare only within one
// cohort: the same benchmark code, toolchain, processor count and
// hardware, and the same seeds on both sides of a comparison.
type cohort struct {
	Commit     string `json:"commit"` // git HEAD when run from a clone, else ""
	Source     string `json:"source"` // digest of the program's files outside the benchmark
	Bench      string `json:"bench"`  // digest of the benchmark's own files
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// record is one run's cohort and result, as written under
// .bench_build/results.
type record struct {
	Cohort cohort `json:"cohort"`
	Result result `json:"result"`
}

func currentCohort(cfg config) cohort {
	src, bench := digests(".")
	return cohort{
		Commit:     gitHead(),
		Source:     src,
		Bench:      bench,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

// gitHead is the commit of a git clone run from its root; a plain
// checkout (no .git) has none.
func gitHead() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// digests hashes the regular files under root: the benchmark's own
// directory into bench, everything else (the program) into src. Build
// output and version-control metadata are skipped.
func digests(root string) (src, bench string) {
	hs, hb := sha256.New(), sha256.New()
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == outDir) {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		h := hs
		if rel := filepath.ToSlash(p); rel == "perfbench" || strings.HasPrefix(rel, "perfbench/") {
			h = hb
		}
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(hs.Sum(nil))[:16], hex.EncodeToString(hb.Sum(nil))[:16]
}

// sameCohort reports the first tag two records disagree on, ignoring
// the seed and the program source (what a comparison varies).
func sameCohort(a, b cohort) string {
	switch {
	case a.Bench != b.Bench:
		return "benchmark code"
	case a.GoVersion != b.GoVersion:
		return "Go version"
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return "GOMAXPROCS"
	case a.NProc != b.NProc:
		return "nproc"
	case a.CPUModel != b.CPUModel:
		return "CPU model"
	case a.Workload != b.Workload:
		return "workload"
	case a.Seconds != b.Seconds:
		return "window length"
	case a.Trace != b.Trace:
		return "trace mode"
	}
	return ""
}

// compareMain summarises result records of at most two program
// versions (grouped by source digest) and refuses mixed cohorts: every
// record must share the benchmark code, toolchain, processor counts,
// CPU model, workload and settings, and the two sides must have run
// the same seeds.
func compareMain(files []string, out io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare RESULT.json...")
		return 2
	}
	var recs []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", f, err)
			return 2
		}
		recs = append(recs, r)
	}
	if err := checkCohorts(recs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing mixed cohorts:", err)
		return 2
	}
	sides := map[string][]record{}
	var order []string
	for _, r := range recs {
		if _, ok := sides[r.Cohort.Source]; !ok {
			order = append(order, r.Cohort.Source)
		}
		sides[r.Cohort.Source] = append(sides[r.Cohort.Source], r)
	}
	fmt.Fprintf(out, "%-28s", "metric")
	for _, s := range order {
		fmt.Fprintf(out, " %34s", fmt.Sprintf("%s (n=%d) median [q1, q3]", s, len(sides[s])))
	}
	fmt.Fprintln(out)
	for _, name := range sortedKeys(recs[0].Result.Metrics) {
		fmt.Fprintf(out, "%-28s", name)
		for _, s := range order {
			var v []float64
			for _, r := range sides[s] {
				v = append(v, r.Result.Metrics[name].Value)
			}
			q1, q3 := quartiles(v)
			fmt.Fprintf(out, " %34s", fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3))
		}
		fmt.Fprintln(out)
	}
	return 0
}

// checkCohorts enforces the cohort rule over a set of records.
func checkCohorts(recs []record) error {
	sides := map[string]map[int64]int{}
	for i, r := range recs {
		if diff := sameCohort(recs[0].Cohort, r.Cohort); diff != "" {
			return fmt.Errorf("record %d differs in %s", i, diff)
		}
		if sides[r.Cohort.Source] == nil {
			sides[r.Cohort.Source] = map[int64]int{}
		}
		sides[r.Cohort.Source][r.Cohort.Seed]++
	}
	if len(sides) > 2 {
		return fmt.Errorf("%d program versions; compare at most two", len(sides))
	}
	var seedSets []string
	for _, seeds := range sides {
		var ks []string
		for s, n := range seeds {
			ks = append(ks, fmt.Sprintf("%d×%d", s, n))
		}
		sort.Strings(ks)
		seedSets = append(seedSets, strings.Join(ks, ","))
	}
	if len(seedSets) == 2 && seedSets[0] != seedSets[1] {
		return fmt.Errorf("the two versions ran different seeds (%s vs %s)", seedSets[0], seedSets[1])
	}
	return nil
}
