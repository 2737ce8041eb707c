package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rased/internal/cluster"
)

// setupReps is how many times a run sets up from an empty directory;
// setup_s is their median.
const setupReps = 3

// A run is cut into open/closed cycles. Each cycle plays the next slice of
// the open-loop schedule for two thirds of the cycle, then the closed loop
// for the last third; capacity_qps is the closed segments' completions over
// their total time. Spread over the whole run, both phases average over the
// same slow and fast spells of a shared host. cycleTarget is the cycle
// length a run's cycles are rounded to: its closed third is one day-close
// period of the live cadence, so every closed segment of the live workload
// holds exactly one day close, not none or one by chance of phase.
const cycleTarget = 3 * liveChunks * liveInterval

// warmUp is how long the closed loop runs over the run's own analysis
// requests before timing starts, its outcomes dropped: the first seconds
// after start-up (connections, heap growth, the router's first latency
// estimates) were slower than the rest of the run by varying amounts.
const warmUp = 2 * time.Second

// stopGrace bounds how long a server may take to exit after SIGTERM.
const stopGrace = 20 * time.Second

// stack is one deployment served by rased-server processes.
type stack struct {
	dir   string
	addr  string  // the public API address
	procs []*proc // in stop order: the public process first
}

func (s *stack) stop() error {
	var first error
	for _, p := range s.procs {
		if err := p.stop(stopGrace); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c config) bin(name string) string { return filepath.Join(c.bins, name) }

// ingestArgs are the rased-ingest flags that build the workload deployment.
func ingestArgs(dir string, days int) []string {
	return []string{"-dir", dir, "-days", strconv.Itoa(days), "-road-types", strconv.Itoa(deployRoadTypes),
		"-updates", strconv.Itoa(deployUpdates), "-seed-elements", strconv.Itoa(deploySeedElems),
		"-start", deployStart, "-seed", strconv.Itoa(deployWorldSeed)}
}

// serverModeArgs are the only rased-server flags a workload adds to the
// defaults: its mode, never a performance knob.
func serverModeArgs(s spec) []string {
	if s.live {
		return []string{"-live", "-compress-closed", "-diff-interval", liveInterval.String(), "-diff-chunks", strconv.Itoa(liveChunks)}
	}
	return nil
}

// setUp builds deployment k from an empty directory and starts its servers,
// returning once every server process answers /healthz.
func setUp(ctx context.Context, cfg config, k int) (*stack, time.Duration, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("deploy%d", k))
	start := time.Now()
	if _, err := runCmd(ctx, cfg.bin("rased-ingest"), ingestArgs(dir, cfg.days)...); err != nil {
		return nil, 0, err
	}
	st := &stack{dir: dir}
	serve := func(name, addr string, args ...string) error {
		p, err := startProc(name, cfg.bin("rased-server"), filepath.Join(cfg.out, fmt.Sprintf("%s%d.log", name, k)), args...)
		if err != nil {
			return err
		}
		st.procs = append([]*proc{p}, st.procs...)
		hctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		return waitHealthy(hctx, addr, p)
	}
	fail := func(err error) (*stack, time.Duration, error) {
		st.stop()
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	st.addr = addr
	if !cfg.spec.routed {
		args := append([]string{"-dir", dir, "-addr", addr}, serverModeArgs(cfg.spec)...)
		if err := serve("server", addr, args...); err != nil {
			return fail(err)
		}
		return st, time.Since(start), nil
	}
	m := &cluster.Map{Version: 1, Groups: clusterGroups, Replication: clusterReplication}
	for i := 0; i < clusterShards; i++ {
		a, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		m.Shards = append(m.Shards, cluster.Shard{ID: fmt.Sprintf("s%d", i), Addr: a})
	}
	mapPath := filepath.Join(cfg.out, fmt.Sprintf("cluster%d.json", k))
	if err := m.Save(mapPath); err != nil {
		return fail(err)
	}
	for _, sh := range m.Shards {
		if err := serve("shard-"+sh.ID, sh.Addr, "-shard", "-shard-id", sh.ID, "-cluster-map", mapPath, "-dir", dir, "-addr", sh.Addr); err != nil {
			return fail(err)
		}
	}
	if err := serve("router", addr, "-router", "-cluster-map", mapPath, "-addr", addr); err != nil {
		return fail(err)
	}
	return st, time.Since(start), nil
}

// foldLagPoller samples a live server's own ingest-lag report from /healthz:
// each newly counted fold contributes the lag of the last fold it reports.
type foldLagPoller struct {
	mu    sync.Mutex
	lags  []float64 // ms
	folds int64
	stop  chan struct{}
	done  chan struct{}
}

func startFoldLagPoller(addr string) *foldLagPoller {
	p := &foldLagPoller{stop: make(chan struct{}), done: make(chan struct{})}
	c := &http.Client{Timeout: time.Second}
	go func() {
		defer close(p.done)
		t := time.NewTicker(liveInterval / 2)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			resp, err := c.Get("http://" + addr + "/healthz")
			if err != nil {
				continue
			}
			var h struct {
				Live struct {
					Folds   int64   `json:"folds"`
					LagSecs float64 `json:"last_lag_seconds"`
				} `json:"live"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				continue
			}
			p.mu.Lock()
			if h.Live.Folds > p.folds {
				p.folds = h.Live.Folds
				p.lags = append(p.lags, h.Live.LagSecs*1000)
			}
			p.mu.Unlock()
		}
	}()
	return p
}

func (p *foldLagPoller) finish() (lags []float64, folds int64) {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lags, p.folds
}

// indexBytes is the on-disk size of a deployment's index: hot store, cold
// store and directory.
func indexBytes(dir string) (int64, error) {
	var total int64
	for _, f := range []string{"cubes.db", "cubes_cold.db", "index.json"} {
		fi, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// runEndToEnd is the untraced run: real processes over HTTP.
func runEndToEnd(ctx context.Context, cfg config) (*result, map[string]any, error) {
	runDur := time.Duration(cfg.seconds) * time.Second
	cycles := max(1, int(math.Round(float64(runDur)/float64(cycleTarget))))
	cycleDur := runDur / time.Duration(cycles)
	openSeg := cycleDur * 2 / 3
	closedSeg := cycleDur - openSeg
	in, err := generate(cfg.spec, cfg.seed, openSeg*time.Duration(cycles), cfg.days)
	if err != nil {
		return nil, nil, err
	}

	var setups []float64
	var st *stack
	for k := 0; k < setupReps; k++ {
		s, d, err := setUp(ctx, cfg, k)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, d.Seconds())
		if k == setupReps-1 {
			st = s
			break
		}
		if err := s.stop(); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			st.stop()
		}
	}()

	var check checker
	static := newStaticChecker()
	lc := newLiveChecker()
	check = static
	if cfg.spec.live {
		check = lc
	}
	var poller *foldLagPoller
	if cfg.spec.live {
		poller = startFoldLagPoller(st.addr)
	}
	cl := newClient("http://"+st.addr, maxConns(), check)
	var (
		openOut, closedOut []outcome
		rates              []float64
		closedWall         time.Duration
		next               atomic.Int64
	)
	closedReqs := analysisOnly(in.sched)
	warm, _ := cl.closedLoop(ctx, closedReqs, &next, warmUp)
	var perCycle []phaseStats
	for _, slice := range splitByDue(in.sched, cycles, openSeg) {
		o := cl.openLoop(ctx, slice)
		perCycle = append(perCycle, summarizePhase(o))
		openOut = append(openOut, o...)
		out, wall := cl.closedLoop(ctx, closedReqs, &next, closedSeg)
		closedOut = append(closedOut, out...)
		closedWall += wall
		ok := 0
		for _, o := range out {
			if o.ok && o.kind == kindAnalysis && o.at < closedSeg {
				ok++
			}
		}
		rates = append(rates, float64(ok)/closedSeg.Seconds())
	}
	cl.close()
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}

	var lags []float64
	var folds int64
	if poller != nil {
		lags, folds = poller.finish()
	}
	var rss float64
	for _, p := range st.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p.name, err)
		}
		rss += mb
	}
	stopped = true
	if err := st.stop(); err != nil {
		return nil, nil, err
	}

	// The oracle runs after the timed phases, on the deployment as the
	// servers left it.
	var wrong []string
	wrong = append(wrong, cl.wrong...)
	nWrong := cl.nWrong
	queries := static.queries
	if cfg.spec.live {
		queries = lc.queries
	}
	ref, err := answerAll(st.dir, referenceOptions(), queries)
	if err != nil {
		return nil, nil, fmt.Errorf("reference answers: %w", err)
	}
	var bad []string
	if cfg.spec.live {
		// The reopened deployment must answer every window exactly as the
		// reference does, and never below a total already served.
		reopened, err := answerAll(st.dir, serverDefaults(), queries)
		if err != nil {
			return nil, nil, fmt.Errorf("reopened answers: %w", err)
		}
		bad = compareAnswers(ref, reopened)
		for k, floor := range lc.floor {
			if t, err := answerTotal(ref[k]); err != nil || t < floor {
				bad = append(bad, k+" (total fell after restart)")
			}
		}
	} else {
		bad = compareAnswers(ref, static.answers)
	}
	for _, k := range bad {
		nWrong++
		if len(wrong) < maxWrongKept {
			wrong = append(wrong, "reference mismatch: "+k)
		}
	}

	ib, err := indexBytes(st.dir)
	if err != nil {
		return nil, nil, err
	}
	updates, err := updatesHeld(st.dir)
	if err != nil {
		return nil, nil, err
	}
	if updates == 0 {
		return nil, nil, fmt.Errorf("deployment holds no updates")
	}
	if err := os.RemoveAll(st.dir); err != nil {
		return nil, nil, err
	}

	open := summarizePhase(openOut)
	closed := summarizePhase(closedOut)
	warmed := summarizePhase(warm)
	res := &result{
		Correct:   nWrong == 0,
		Attempted: open.Attempts + closed.Attempts + warmed.Attempts,
		Failed:    open.Failed + closed.Failed + warmed.Failed,
		Metrics: map[string]metric{
			"setup_s":                {median(setups), "s"},
			"p50_ms":                 {finite(open.Analysis.P50), "ms"},
			"p90_ms":                 {finite(open.Analysis.P90), "ms"},
			"sample_p50_ms":          {finite(open.Samples.P50), "ms"},
			"capacity_qps":           {mean(rates), "1/s"},
			"index_bytes_per_update": {float64(ib) / float64(updates), "B"},
			"server_rss_mb":          {rss, "MB"},
		},
	}
	// The bounded tail is the analysis requests' p90. The highest
	// percentile with ten samples beyond it (p97-p99 at these rates) spread
	// by a quarter to three quarters from run to run on a 2-CPU host, and
	// the map samples' p90 moved two to three times as far as their median
	// whenever the host took CPU time from the run, so both are printed and
	// recorded with their sample counts, not bounded.
	fmt.Printf("open loop: %d analysis requests, tail p%.4g %.3f ms; %d sample requests, p90 %.3f ms, tail p%.4g %.3f ms\n",
		open.Analysis.N, open.Analysis.TailPct, open.Analysis.Tail, open.Samples.N, open.Samples.P90, open.Samples.TailPct, open.Samples.Tail)
	fmt.Printf("generator lateness p50 %.3f ms, p%.4g %.3f ms; fail_ratio %d/%d\n",
		open.Late.P50, open.Late.TailPct, open.Late.Tail, res.Failed, res.Attempted)
	report := map[string]any{
		"open_loop":          open,
		"closed_segment_qps": rates,
		"open_cycles":        perCycle,
		"closed_loop":        closed,
		"closed_wall_s":      closedWall.Seconds(),
		"setup_s":            setups,
		"fail_ratio":         float64(res.Failed) / float64(res.Attempted),
		"index_bytes":        ib,
		"updates_held":       updates,
		"server_flags":       serverModeArgs(cfg.spec),
		"workload":           in.props,
		"wrong_answers":      wrong,
		"reference_checks":   len(ref),
	}
	if cfg.spec.live {
		ls := summarize(lags)
		report["fold_lag"] = map[string]any{"folds": folds, "p50_ms": ls.P50, "p95_ms": percentile(sortedCopy(lags), 95), "samples": ls.N}
		fmt.Printf("fold lag p50 %.3f ms, p95 %.3f ms over %d sampled folds (%d folds)\n",
			ls.P50, percentile(sortedCopy(lags), 95), ls.N, folds)
	}
	for _, w := range wrong {
		fmt.Fprintln(os.Stderr, "ledger: wrong answer:", w)
	}
	return res, report, nil
}
