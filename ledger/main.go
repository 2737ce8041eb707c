// Command ledger is RASED's benchmark: it builds a deployment with the
// shipped rased-ingest, serves it with the shipped rased-server at its
// default flags (plus only the mode flags a workload needs), drives it over
// HTTP from one process on one connection per CPU, checks every
// answer, and prints the end-to-end metrics. With -trace 1 it instead
// replays the same inputs through an in-process stack assembled from the
// layers' public constructors, timing the calls into each layer, and prints
// the per-layer metrics.
//
//	bash ledger/run.sh --workload history --seed 1 --seconds 30 --trace 0
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics. Results, provenance and span files go to .bench_build/ledger/.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies where and how a result was measured.
type provenance struct {
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	Seed         int64   `json:"seed"`
	Workload     string  `json:"workload"`
	Why          string  `json:"why"`
	OfferedRate  float64 `json:"offered_rate_qps"`
	Seconds      int     `json:"seconds"`
	Traced       bool    `json:"traced"`
	StartedAt    string  `json:"started_at"`
	WallSeconds  float64 `json:"wall_seconds"`
}

type config struct {
	root    string
	bins    string // directory of the built rased-server and rased-ingest
	days    int    // deployment size in simulated days
	out     string // this run's output directory
	spec    spec
	seed    int64
	seconds int
	trace   bool
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root holding the RASED sources")
		name     = flag.String("workload", "", "workload: history, live or routed")
		seed     = flag.Int64("seed", 1, "seed of the generated requests (the simulated world is fixed)")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		traceArg = flag.Int("trace", 0, "1: traced in-process run printing per-layer metrics")
	)
	flag.Parse()
	s, ok := specByName(*name)
	if !ok || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "ledger: need -workload history|live|routed, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	cfg := config{
		root:    absRoot,
		bins:    filepath.Join(absRoot, ".bench_build", "bin"),
		days:    deployDays,
		spec:    s,
		seed:    *seed,
		seconds: *seconds,
		trace:   *traceArg == 1,
	}
	cfg.out = filepath.Join(absRoot, ".bench_build", "ledger", fmt.Sprintf("%s-seed%d-trace%d", s.name, cfg.seed, *traceArg))
	if err := os.RemoveAll(cfg.out); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	started := time.Now()
	var (
		res    *result
		report map[string]any
	)
	if cfg.trace {
		res, report, err = runTraced(ctx, cfg)
	} else {
		res, report, err = runEndToEnd(ctx, cfg)
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	prov := provenanceOf(cfg, started)
	report["provenance"] = prov
	report["result"] = res
	if err := writeJSONFile(filepath.Join(cfg.out, "result.json"), report); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics lists every metric by name and unit ahead of the JSON line.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func provenanceOf(cfg config, started time.Time) provenance {
	return provenance{
		Commit:       gitCommit(cfg.root),
		SourceDigest: sourceDigest(cfg.root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Seed:         cfg.seed,
		Workload:     cfg.spec.name,
		Why:          cfg.spec.why,
		OfferedRate:  cfg.spec.rate,
		Seconds:      cfg.seconds,
		Traced:       cfg.trace,
		StartedAt:    started.UTC().Format(time.RFC3339),
		WallSeconds:  time.Since(started).Seconds(),
	}
}

// gitCommit is the checkout's commit, or "unknown" outside a git work tree
// (the source digest identifies the code either way).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root, outside
// build output, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n != "." && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
