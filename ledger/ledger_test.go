package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rased"
	"rased/internal/core"
	"rased/internal/cube"
	"rased/internal/geo"
	"rased/internal/osmgen"
	"rased/internal/temporal"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 100, 537, 999, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p := tailPercentile(n)
		beyond := n - int(percentile(xs, p))
		if beyond < minBeyond {
			t.Errorf("n=%d: p%.4g leaves %d samples beyond it, want >= %d", n, p, beyond, minBeyond)
		}
		if p < tailCap && beyond != minBeyond {
			t.Errorf("n=%d: p%.4g leaves %d beyond; the highest percentile leaves exactly %d", n, p, beyond, minBeyond)
		}
	}
	// Below 20 samples no percentile at or above the median has 10 beyond
	// it; the rule falls back to the median.
	for n, want := range map[int]float64{5: 50, 11: 50, 20: 50, 100: 90, 500: 98, 1000: 99, 5000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	ms := make([]float64, 200)
	for i := range ms {
		ms[i] = float64(i)
	}
	s := summarize(ms)
	if s.N != 200 || s.TailPct != 95 || s.P50 != 99 || s.P90 != 179 || s.Tail != 189 {
		t.Fatalf("summarize = %+v, want n 200, p95 189, p90 179, p50 99", s)
	}
}

func TestFailuresSortPastAnyLimit(t *testing.T) {
	var ms []float64
	for i := 0; i < 100; i++ {
		ms = append(ms, 1)
	}
	failed := outcome{ok: false, latency: time.Millisecond}
	for i := 0; i < 11; i++ {
		ms = append(ms, failed.ms())
	}
	s := summarize(ms)
	if s.Failed != 11 {
		t.Fatalf("failed = %d, want 11", s.Failed)
	}
	if !math.IsInf(s.Tail, 1) {
		t.Fatalf("tail = %v with 11 failures among 111 requests, want +Inf", s.Tail)
	}
	if finite(s.Tail) != math.MaxFloat64 {
		t.Fatalf("a failed tail must print as the largest float, got %v", finite(s.Tail))
	}
	if s.P50 != 1 {
		t.Fatalf("p50 = %v, want 1", s.P50)
	}
}

// answerServer answers every analysis request with an empty result after
// stall, when the body names the stalled window.
func answerServer(stall time.Duration, stalled string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if strings.Contains(string(body), stalled) {
			time.Sleep(stall)
		}
		io.WriteString(w, `{"rows":null,"total":0,"stats":{"elapsed_nanos":1}}`)
	}))
}

func TestOpenLoopChargesRequestsQueuedBehindAStall(t *testing.T) {
	const stall = 150 * time.Millisecond
	lo, _ := coverage(deployDays)
	var sched []request
	for i := 0; i < 6; i++ {
		q := core.Query{From: lo + temporal.Day(i), To: lo + temporal.Day(i)}
		sched = append(sched, analysisRequest(q, time.Duration(i)*10*time.Millisecond, "t0", "api"))
	}
	srv := answerServer(stall, `"from":"`+lo.String()+`"`)
	defer srv.Close()
	c := newClient(srv.URL, 1, newStaticChecker())
	defer c.close()
	out := c.openLoop(context.Background(), sched)
	if out[0].late > 20*time.Millisecond {
		t.Fatalf("first request sent %v late on an idle connection", out[0].late)
	}
	for i := 1; i < len(out); i++ {
		due := sched[i].due
		if !out[i].ok {
			t.Fatalf("request %d failed", i)
		}
		if out[i].late < stall-due-5*time.Millisecond {
			t.Errorf("request %d: late %v, want about %v behind the stall", i, out[i].late, stall-due)
		}
		if out[i].latency < stall-due {
			t.Errorf("request %d: latency %v does not include the %v it queued", i, out[i].latency, stall-due)
		}
	}
	if st := summarizePhase(out); st.Late.Tail < 100 {
		t.Errorf("reported generator lateness tail %.1f ms, want >= 100 ms", st.Late.Tail)
	}
}

func TestSplitByDueCountsEachSliceFromItsStart(t *testing.T) {
	const span = 300 * time.Millisecond
	lo, _ := coverage(deployDays)
	var sched []request
	for i := 0; i < 9; i++ {
		q := core.Query{From: lo, To: lo + temporal.Day(i)}
		sched = append(sched, analysisRequest(q, time.Duration(i)*100*time.Millisecond, "t0", "api"))
	}
	n := 0
	for k, slice := range splitByDue(sched, 3, span) {
		if len(slice) != 3 {
			t.Fatalf("slice %d holds %d requests, want 3", k, len(slice))
		}
		for _, r := range slice {
			if want := sched[n].due - time.Duration(k)*span; r.key != sched[n].key || r.due != want {
				t.Errorf("slice %d: got %s due %v, want %s due %v", k, r.key, r.due, sched[n].key, want)
			}
			n++
		}
	}
}

func TestClosedLoopSegmentsContinueThroughTheRequests(t *testing.T) {
	lo, _ := coverage(deployDays)
	var reqs []request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, analysisRequest(core.Query{From: lo, To: lo + temporal.Day(i)}, 0, "t0", "api"))
	}
	srv := answerServer(0, "no window stalls")
	defer srv.Close()
	c := newClient(srv.URL, 2, newStaticChecker())
	defer c.close()
	var next atomic.Int64
	first, _ := c.closedLoop(context.Background(), reqs, &next, 30*time.Millisecond)
	if taken := next.Load(); int64(len(first)) != taken || taken == 0 {
		t.Fatalf("first segment: %d outcomes, cursor at %d", len(first), taken)
	}
	second, _ := c.closedLoop(context.Background(), reqs, &next, 30*time.Millisecond)
	if got := next.Load(); got != int64(len(first)+len(second)) {
		t.Fatalf("cursor at %d after %d+%d requests: the second segment did not continue from the first", got, len(first), len(second))
	}
}

func TestStaticCheckerFlagsAChangedAnswer(t *testing.T) {
	lo, _ := coverage(deployDays)
	r := analysisRequest(core.Query{From: lo, To: lo + 6}, 0, "t0", "api")
	c := newStaticChecker()
	if err := c.analysis(&r, []byte(`{"rows":[{"count":3}],"total":3`), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.analysis(&r, []byte(`{"rows":[{"count":3}],"total":3`), nil); err != nil {
		t.Fatalf("identical answer flagged: %v", err)
	}
	if err := c.analysis(&r, []byte(`{"rows":[{"count":4}],"total":4`), nil); err == nil {
		t.Fatal("a different answer to the same query was not flagged")
	}
}

func TestLiveCheckerFlagsAShrinkingTotal(t *testing.T) {
	lo, _ := coverage(deployDays)
	r := analysisRequest(core.Query{From: lo, To: lo + 6}, 0, "t0", "api")
	c := newLiveChecker()
	if err := c.analysis(&r, []byte(`{"rows":[],"total":10`), c.before(&r)); err != nil {
		t.Fatal(err)
	}
	tok := c.before(&r)
	if err := c.analysis(&r, []byte(`{"rows":[],"total":12`), tok); err != nil {
		t.Fatalf("a growing total was flagged: %v", err)
	}
	if err := c.analysis(&r, []byte(`{"rows":[],"total":11`), c.before(&r)); err == nil {
		t.Fatal("a total below one already answered was not flagged")
	}
}

func TestCheckSampleFlagsAFilterViolation(t *testing.T) {
	lo, _ := coverage(deployDays)
	q := core.Query{From: lo, To: lo + 9, Countries: []string{geo.Default().Name(0)}}
	r := sampleRequest(q, 0, "t0", "interactive", 1)
	ok := `{"samples":[{"date":"` + (lo + 3).String() + `","country":"` + geo.Default().Name(0) + `"}]}`
	if err := checkSample(&r, []byte(ok)); err != nil {
		t.Fatalf("a matching sample was flagged: %v", err)
	}
	late := `{"samples":[{"date":"` + (lo + 10).String() + `","country":"` + geo.Default().Name(0) + `"}]}`
	if err := checkSample(&r, []byte(late)); err == nil {
		t.Fatal("a sample dated past the window was not flagged")
	}
	elsewhere := `{"samples":[{"date":"` + (lo + 3).String() + `","country":"` + geo.Default().Name(1) + `"}]}`
	if err := checkSample(&r, []byte(elsewhere)); err == nil {
		t.Fatal("a sample outside the country filter was not flagged")
	}
}

// TestRequestIDsSplitAnalysesEvenly checks the traced run's split: ids are
// unique, analysis requests alternate between traced and untraced in
// schedule order whatever the mix, and a map sample goes with the analysis
// request it belongs to.
func TestRequestIDsSplitAnalysesEvenly(t *testing.T) {
	for _, s := range specs {
		in, err := generate(s, 11, 2*time.Second, smokeDays)
		if err != nil {
			t.Fatal(err)
		}
		ids := requestIDs(in.sched)
		seen := map[uint64]bool{}
		var traced, untraced int
		var last bool
		for i, id := range ids {
			if seen[id] {
				t.Fatalf("%s: id %d used twice", s.name, id)
			}
			seen[id] = true
			switch r := in.sched[i]; {
			case r.kind == kindAnalysis && tracedID(id):
				traced++
				last = true
			case r.kind == kindAnalysis:
				untraced++
				last = false
			case tracedID(id) != last:
				t.Fatalf("%s: sample %d is traced %v, its analysis request %v", s.name, i, tracedID(id), last)
			}
			if traced-untraced < -1 || traced-untraced > 1 {
				t.Fatalf("%s: after request %d, %d traced and %d untraced analyses", s.name, i, traced, untraced)
			}
		}
	}
}

func TestWorkloadsAreDeterministicPerSeed(t *testing.T) {
	for _, s := range specs {
		a, err := generate(s, 7, 2*time.Second, smokeDays)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(s, 7, 2*time.Second, smokeDays)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.sched) != len(b.sched) || a.props != b.props {
			t.Fatalf("%s: two generations from one seed differ", s.name)
		}
		for i := range a.sched {
			if string(a.sched[i].body) != string(b.sched[i].body) || a.sched[i].due != b.sched[i].due {
				t.Fatalf("%s: request %d differs between generations from one seed", s.name, i)
			}
		}
		if a.props.Analysis != int(s.rate*2) {
			t.Errorf("%s: %d analysis requests over 2 s at %v/s", s.name, a.props.Analysis, s.rate)
		}
	}
}

// smokeDays is the deployment size of the end-to-end smoke tests.
const smokeDays = 45

// buildBinaries builds the shipped commands the end-to-end runs start.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bins := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bins+"/", "rased/cmd/rased-server", "rased/cmd/rased-ingest")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bins
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(res *result) []string {
	var out []string
	for n := range res.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s metrics %v, BENCHMARK.json declares %v", what, got, want)
	}
}

// TestSmoke runs every workload end to end and traced at a tiny scale: the
// shipped binaries over HTTP, every answer checked, every declared metric
// printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bins := buildBinaries(t)
	endToEnd, perLayer := benchmarkNames(t)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			cfg := config{root: t.TempDir(), bins: bins, spec: s, seed: 3, seconds: 2, days: smokeDays}
			cfg.out = filepath.Join(cfg.root, "out")
			if err := os.MkdirAll(cfg.out, 0o755); err != nil {
				t.Fatal(err)
			}
			res, _, err := runEndToEnd(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("end-to-end run: correct %v over %d requests", res.Correct, res.Attempted)
			}
			sameNames(t, "end-to-end", metricNames(res), endToEnd)
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", n, m.Value)
				}
			}
			res, _, err = runTraced(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("traced run reported a wrong answer")
			}
			sameNames(t, "per-layer", metricNames(res), perLayer)
			if _, err := os.Stat(filepath.Join(cfg.out, "spans.jsonl")); err != nil {
				t.Fatalf("traced run wrote no span file: %v", err)
			}
		})
	}
}

// TestOracleCatchesAWrongAnswer builds a tiny deployment, checks that the
// server's engine configuration agrees with the reference form, and that a
// single altered answer is caught.
func TestOracleCatchesAWrongAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a deployment")
	}
	dir := filepath.Join(t.TempDir(), "dep")
	start, _ := coverage(smokeDays)
	if _, err := rased.Build(rased.BuildConfig{
		Dir:    dir,
		Days:   smokeDays,
		Gen:    osmgen.Config{Seed: deployWorldSeed, Start: start, UpdatesPerDay: deployUpdates, SeedElements: deploySeedElems},
		Schema: cube.ScaledSchema(geo.Default().NumValues(), deployRoadTypes),
	}); err != nil {
		t.Fatal(err)
	}
	hist, _ := specByName("history")
	in, err := generate(hist, 5, time.Second, smokeDays)
	if err != nil {
		t.Fatal(err)
	}
	qs := map[string]core.Query{}
	for _, r := range in.sched {
		if r.kind == kindAnalysis {
			qs[r.key] = r.q
		}
	}
	ref, err := answerAll(dir, referenceOptions(), qs)
	if err != nil {
		t.Fatal(err)
	}
	served, err := answerAll(dir, serverDefaults(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if bad := compareAnswers(ref, served); len(bad) != 0 {
		t.Fatalf("server configuration disagrees with the reference on %v", bad)
	}
	var victim string
	for k, a := range served {
		if strings.Contains(string(a), `"count":`) {
			victim = k
			break
		}
	}
	if victim == "" {
		t.Fatal("no non-empty answer to alter")
	}
	served[victim] = []byte(strings.Replace(string(served[victim]), `"count":`, `"count":1`, 1))
	if bad := compareAnswers(ref, served); len(bad) != 1 || bad[0] != victim {
		t.Fatalf("altered answer %s: oracle flagged %v", victim, bad)
	}
}
