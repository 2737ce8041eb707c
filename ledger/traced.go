package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rased"
	"rased/internal/cache"
	"rased/internal/cluster"
	"rased/internal/core"
	"rased/internal/cube"
	"rased/internal/geo"
	"rased/internal/live"
	"rased/internal/obs"
	"rased/internal/osmgen"
	"rased/internal/pagestore"
	"rased/internal/plan"
	"rased/internal/server"
	"rased/internal/temporal"
	"rased/internal/tindex"
	"rased/internal/update"
	"rased/internal/warehouse"
)

// serverDefaults are the engine options rased-server uses when given no
// flags; the traced run records them so drift from the server shows.
func serverDefaults() core.Options {
	return core.Options{
		CacheSlots:        512,
		Allocation:        cache.Allocation{Alpha: 0.4, Beta: 0.35, Gamma: 0.2, Theta: 0.05},
		LevelOptimization: true,
		FetchWorkers:      runtime.GOMAXPROCS(0),
		Singleflight:      true,
		CachePolicy:       "preload",
		ReadRetries:       2,
		ReadRetryBackoff:  2 * time.Millisecond,
		DegradedFallback:  true,
		ResultCacheSlots:  4096,
	}
}

// node is one deployment opened in-process through the layers' public
// constructors, its page stores wrapped for timing.
type node struct {
	ix  *tindex.Index
	eng *core.Engine
	wh  *warehouse.Store
}

func (n *node) AnalyzeContext(ctx context.Context, q core.Query) (*core.Result, error) {
	return n.eng.AnalyzeContext(ctx, q)
}
func (n *node) Sample(q warehouse.SampleQuery) ([]update.Record, error) { return n.wh.Sample(q) }
func (n *node) ByChangeset(id int64) ([]update.Record, error)           { return n.wh.ByChangeset(id) }
func (n *node) Coverage() (lo, hi temporal.Day, ok bool)                { return n.ix.Coverage() }
func (n *node) Health() core.Health                                     { return n.eng.Health() }

func (n *node) close() {
	n.wh.Close()
	n.ix.Close()
}

// openNode mirrors rased.OpenWith with timing wrappers under both tiers.
func openNode(dir string, opts core.Options, hot, cold *ioCounters, tr *tracer) (*node, error) {
	var meta struct {
		Countries int `json:"countries"`
		RoadTypes int `json:"road_types"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "deployment.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("deployment.json: %w", err)
	}
	schema := cube.ScaledSchema(meta.Countries, meta.RoadTypes)
	ix, err := tindex.Open(dir, schema,
		tindex.WithStoreWrapper(func(p pagestore.Pager) pagestore.Pager {
			return &timingPager{Pager: p, name: "pagestore.hot", c: hot, tr: tr}
		}),
		tindex.WithColdStoreWrapper(func(p pagestore.Pager) pagestore.Pager {
			return &timingPager{Pager: p, name: "pagestore.cold", c: cold, tr: tr}
		}))
	if err != nil {
		return nil, err
	}
	ix.SetVerifyReads(opts.DegradedFallback)
	eng, err := core.NewEngine(ix, opts)
	if err != nil {
		ix.Close()
		return nil, err
	}
	var sizes struct {
		Snapshots []struct {
			AsOf  int            `json:"as_of"`
			Sizes map[int]uint64 `json:"sizes"`
		} `json:"snapshots"`
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "netsizes.json")); err == nil && json.Unmarshal(raw, &sizes) == nil {
		for _, s := range sizes.Snapshots {
			eng.AddNetworkSizeSnapshot(temporal.Day(s.AsOf), s.Sizes)
		}
	}
	wh, err := warehouse.Open(filepath.Join(dir, "warehouse.db"))
	if err != nil {
		ix.Close()
		return nil, err
	}
	return &node{ix: ix, eng: eng, wh: wh}, nil
}

// serve runs h on l until the returned stop is called; stop returns once the
// server has shut down.
func serve(l net.Listener, h http.Handler) (stop func()) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns ErrServerClosed on shutdown
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a forced close still ends Serve
		<-done
	}
}

// folder drives a live pipeline from the ledger's own diff stream at the
// server's cadence, timing every fold.
type folder struct {
	mu        sync.Mutex
	foldMs    []float64
	closeMs   []float64
	lagMs     []float64
	pubBytes  int64
	writes    func() int64
	cancel    context.CancelFunc
	done      chan struct{}
	foldError error
}

func startFolder(ix *tindex.Index, eng *core.Engine, writes func() int64, tr *tracer) *folder {
	gcfg := osmgen.DefaultConfig()
	gcfg.Seed = liveSeed
	_, hi, _ := ix.Coverage() // a built deployment always has coverage
	gcfg.Start = hi + 1
	pipe := live.NewPipeline(ix, live.Config{
		MaxCountry:     len(ix.Schema().Countries),
		MaxRoad:        len(ix.Schema().RoadTypes),
		Engine:         eng,
		CompressClosed: true,
	})
	src := live.NewSimSource(osmgen.NewDiffStream(gcfg, liveChunks), liveInterval, 0)
	ctx, cancel := context.WithCancel(context.Background())
	f := &folder{writes: writes, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		for {
			c, err := src.Next(ctx)
			if err != nil {
				return
			}
			w0 := f.writes()
			start := time.Now()
			err = pipe.FoldChunkCtx(ctx, c)
			end := time.Now()
			if err != nil {
				if ctx.Err() == nil {
					f.foldError = err
				}
				return
			}
			tr.record("live.fold", "", 0, start, end, 0)
			ms := float64(end.Sub(start)) / 1e6
			f.mu.Lock()
			f.foldMs = append(f.foldMs, ms)
			if c.Last {
				f.closeMs = append(f.closeMs, ms)
			}
			f.lagMs = append(f.lagMs, float64(end.Sub(c.Emitted))/1e6)
			f.pubBytes += f.writes() - w0
			f.mu.Unlock()
		}
	}()
	return f
}

func (f *folder) stop() error {
	f.cancel()
	<-f.done
	return f.foldError
}

// tracedStack is the in-process system under the traced run.
type tracedStack struct {
	addr    string
	backend *tracedBackend
	router  *cluster.Router
	nodes   []*node
	fold    *folder
	closers []func()
}

func (s *tracedStack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// cacheStats sums cube-cache hits and misses over the stack's engines.
func (s *tracedStack) cacheStats() cache.Stats {
	var out cache.Stats
	for _, n := range s.nodes {
		if st, ok := n.eng.CacheStats(); ok {
			out.Hits += st.Hits
			out.Misses += st.Misses
		}
	}
	return out
}

func buildTracedStack(cfg config, dir string, hot, cold *ioCounters, tr *tracer) (*tracedStack, error) {
	st := &tracedStack{}
	fail := func(err error) (*tracedStack, error) {
		st.close()
		return nil, err
	}
	var inner server.Backend
	if cfg.spec.routed {
		// The shards' listeners open first: the cluster map names their
		// addresses.
		m := &cluster.Map{Version: 1, Groups: clusterGroups, Replication: clusterReplication}
		var ls []net.Listener
		for i := 0; i < clusterShards; i++ {
			n, err := openNode(dir, serverDefaults(), hot, cold, tr)
			if err != nil {
				return fail(err)
			}
			st.nodes = append(st.nodes, n)
			st.closers = append(st.closers, n.close)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(err)
			}
			st.closers = append(st.closers, func() { l.Close() }) // in case serve never takes it over
			ls = append(ls, l)
			m.Shards = append(m.Shards, cluster.Shard{ID: fmt.Sprintf("s%d", i), Addr: l.Addr().String()})
		}
		for i, n := range st.nodes {
			sh, err := cluster.NewShardServer(m.Shards[i].ID, m, n.eng, n.wh)
			if err != nil {
				return fail(err)
			}
			st.closers = append(st.closers, serve(ls[i], sh.Handler(obs.NewRegistry())))
		}
		rt, err := cluster.NewRouter(m, &timingTransport{Transport: &cluster.HTTPTransport{}, tr: tr}, cluster.RouterConfig{
			ShardTimeout:   10 * time.Second,
			SpreadReplicas: true,
			HealthInterval: 5 * time.Second,
		})
		if err != nil {
			return fail(err)
		}
		// One poll before serving, so the router knows the shards' coverage
		// from the first request on: until it does, it does not clip query
		// windows to it, and a window wholly outside the coverage answers
		// "rows":[] instead of the "rows":null it answers afterwards.
		rt.RefreshHealth(context.Background())
		hctx, hcancel := context.WithCancel(context.Background())
		hdone := make(chan struct{})
		go func() {
			defer close(hdone)
			rt.RunHealth(hctx)
		}()
		st.closers = append(st.closers, func() { hcancel(); <-hdone })
		st.router = rt
		inner = rt
	} else {
		n, err := openNode(dir, serverDefaults(), hot, cold, tr)
		if err != nil {
			return fail(err)
		}
		st.nodes = append(st.nodes, n)
		st.closers = append(st.closers, n.close)
		inner = n
		if cfg.spec.live {
			writes := func() int64 { return hot.writeBytes.Load() + cold.writeBytes.Load() }
			st.fold = startFolder(n.ix, n.eng, writes, tr)
			st.closers = append(st.closers, func() { _ = st.fold.stop() }) // stop is checked before close
		}
	}
	logf, err := os.Create(filepath.Join(cfg.out, "server-access.log"))
	if err != nil {
		return fail(err)
	}
	st.closers = append(st.closers, func() { logf.Close() })
	logger := slog.New(slog.NewTextHandler(logf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	st.backend = &tracedBackend{Backend: inner, tr: tr}
	srv := server.New(st.backend, server.WithLogger(logger))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	st.closers = append(st.closers, serve(l, tracedHandler(srv, tr)))
	st.addr = l.Addr().String()
	return st, nil
}

// buildInProcess builds the deployment with rased.Build, timing it and
// reading the index's page writes from the build's metrics.
func buildInProcess(cfg config, dir string) (secs float64, records int, writeBytes int64, err error) {
	start, err := temporal.ParseDay(deployStart)
	if err != nil {
		return 0, 0, 0, err
	}
	schema := cube.ScaledSchema(geo.Default().NumValues(), deployRoadTypes)
	reg := obs.NewRegistry()
	t0 := time.Now()
	rep, err := rased.Build(rased.BuildConfig{
		Dir:  dir,
		Days: cfg.days,
		Gen: osmgen.Config{
			Seed:          deployWorldSeed,
			Start:         start,
			UpdatesPerDay: deployUpdates,
			SeedElements:  deploySeedElems,
		},
		Schema: schema,
		Obs:    reg,
	})
	secs = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, m := range reg.Snapshot() {
		if m.Name == "rased_pagestore_writes_total" && m.Labels["store"] == "cubes.db" {
			writeBytes = int64(m.Value) * int64(cube.PageSize(schema))
		}
	}
	return secs, rep.Records, writeBytes, nil
}

// minOverheadGroup is the fewest analysis requests each of the traced and
// untraced halves must have for harness.trace_overhead to be reported.
const minOverheadGroup = 25

// runTraced is the traced run: the same inputs through an in-process stack,
// interleaving traced and untraced requests, reporting per-layer metrics.
func runTraced(ctx context.Context, cfg config) (*result, map[string]any, error) {
	passDur := time.Duration(cfg.seconds) * time.Second
	in, err := generate(cfg.spec, cfg.seed, passDur, cfg.days)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(cfg.out, "deploy")
	buildS, records, buildWrites, err := buildInProcess(cfg, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	if records == 0 {
		return nil, nil, errors.New("build ingested no updates")
	}

	tr := newTracer()
	var hot, cold ioCounters
	st, err := buildTracedStack(cfg, dir, &hot, &cold, tr)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		st.close()
		os.RemoveAll(dir) // best effort: the deployment is disposable once measured
	}()

	var check checker = newStaticChecker()
	if cfg.spec.live {
		check = newLiveChecker()
	}
	ids := requestIDs(in.sched)
	cl := newClient("http://"+st.addr, maxConns(), check)
	cl.reqID = func(i int) uint64 { return ids[i] }
	cl.onReply = func(id uint64, r *request, sent, done time.Time, n int) {
		parent := ""
		if r.kind == kindSample {
			parent = "sample"
		}
		tr.record("client", parent, id, sent, done, int64(n))
	}

	io0 := struct{ hot, cold ioSnapshot }{hot.snapshot(), cold.snapshot()}
	cache0 := st.cacheStats()
	var rpc0, hedges0 int64
	if st.router != nil {
		rpc0, hedges0 = st.router.Metrics().RPCs.Value(), st.router.Metrics().HedgesFired.Value()
	}
	tr.on.Store(true)
	out := cl.openLoop(ctx, in.sched)
	tr.on.Store(false)
	cl.close()
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	var tracedOut, untracedOut []outcome
	for _, o := range out {
		if tracedID(o.id) {
			tracedOut = append(tracedOut, o)
		} else {
			untracedOut = append(untracedOut, o)
		}
	}
	all := summarizePhase(out)
	traced, untraced := summarizePhase(tracedOut), summarizePhase(untracedOut)
	if min(traced.Analysis.N, untraced.Analysis.N) < minOverheadGroup {
		return nil, nil, fmt.Errorf("trace overhead: %d traced and %d untraced analysis requests, need %d of each",
			traced.Analysis.N, untraced.Analysis.N, minOverheadGroup)
	}
	// Page I/O, cache and RPC counters cover every request of the pass.
	nAll := float64(all.Analysis.N)
	hotD, coldD := hot.snapshot().minus(io0.hot), cold.snapshot().minus(io0.cold)
	cache1 := st.cacheStats()
	if st.fold != nil {
		if err := st.fold.stop(); err != nil {
			return nil, nil, fmt.Errorf("live fold: %w", err)
		}
	}

	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(cfg.out, "spans.jsonl"), spans); err != nil {
		return nil, nil, err
	}

	st.backend.mu.Lock()
	queries := append([]queryRecord(nil), st.backend.queries...)
	samples := append([]time.Duration(nil), st.backend.samples...)
	st.backend.mu.Unlock()
	nq := float64(len(queries))
	if nq == 0 {
		return nil, nil, errors.New("traced pass answered no analysis queries")
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Server and engine layers, joined by request id.
	self, respBytes, unattributed, clientTotal := layerSelfTimes(spans, queries, cfg.spec.routed)
	put("server.self_ms", self, "ms")
	put("server.resp_bytes", respBytes, "B")
	put("harness.unattributed_share", unattributed/clientTotal, "ratio")

	var admit []float64
	var shared, disk, pages int64
	stage := map[string]int64{}
	for _, r := range queries {
		admit = append(admit, float64(r.wall.Nanoseconds()-r.stats.ElapsedNanos)/1e6)
		shared += int64(r.stats.SharedFetches)
		disk += int64(r.stats.DiskReads)
		if r.trace != nil {
			pages += r.trace.PageReads
			for _, s := range r.trace.Stages {
				stage[s.Name] += s.Nanos
			}
		}
	}
	put("exec.admit_wait_ms_p99", summarize(admit).Tail, "ms")
	put("exec.flight_shared_ratio", ratio(float64(shared), float64(disk)), "ratio")
	put("core.compile_filter_us", float64(stage["compile_filter"])/nq/1e3, "us")
	put("core.plan_us", float64(stage["plan"])/nq/1e3, "us")
	put("core.aggregate_ms", float64(stage["aggregate"])/nq/1e6, "ms")
	put("core.build_rows_us", float64(stage["build_rows"])/nq/1e3, "us")
	put("cache.hit_ratio", ratio(float64(cache1.Hits-cache0.Hits), float64(cache1.Hits-cache0.Hits+cache1.Misses-cache0.Misses)), "ratio")
	put("tindex.pages_per_query", float64(pages)/nq, "count")
	put("tindex.cold_read_share", ratio(float64(coldD.reads), float64(hotD.reads+coldD.reads)), "ratio")
	put("pagestore.reads_per_query", float64(hotD.reads+coldD.reads)/nAll, "count")
	put("pagestore.read_bytes_per_query", float64(hotD.readBytes+coldD.readBytes)/nAll, "B")
	put("pagestore.read_ms_per_query", float64(hotD.readNanos+coldD.readNanos)/nAll/1e6, "ms")
	put("pagestore.write_bytes_per_update", float64(buildWrites)/float64(records), "B")
	put("setup.build_s", buildS, "s")
	put("setup.updates_per_s", float64(records)/buildS, "1/s")

	var sampleMs []float64
	for _, d := range samples {
		sampleMs = append(sampleMs, float64(d)/1e6)
	}
	put("warehouse.sample_ms", mean(sampleMs), "ms")

	// The plan and cube layers, timed by the ledger over the traced windows
	// and the cubes those queries read.
	node := st.nodes[0]
	optUs, cubes := timePlans(node, queries)
	put("plan.optimize_us", optUs, "us")
	put("plan.cubes_per_query", cubes, "count")
	dec, err := timeCubes(ctx, node, queries)
	if err != nil {
		return nil, nil, err
	}
	put("cube.decode_us_hot", dec.hotUs, "us")
	put("cube.decode_us_cold", dec.coldUs, "us")
	put("cube.kernel_us_per_cube", dec.kernelUs, "us")

	// Live folds: zero on the workloads that do not fold.
	var fold, closeMs, lag []float64
	var pub int64
	if st.fold != nil {
		st.fold.mu.Lock()
		fold, closeMs, lag, pub = st.fold.foldMs, st.fold.closeMs, st.fold.lagMs, st.fold.pubBytes
		st.fold.mu.Unlock()
	}
	put("live.fold_ms_p50", zeroIfNaN(median(fold)), "ms")
	put("live.fold_ms_p95", zeroIfNaN(percentile(sortedCopy(fold), 95)), "ms")
	put("live.day_close_ms", zeroIfNaN(median(closeMs)), "ms")
	put("live.fold_lag_p50_ms", zeroIfNaN(median(lag)), "ms")
	put("live.fold_lag_p95_ms", zeroIfNaN(percentile(sortedCopy(lag), 95)), "ms")
	put("live.publish_bytes_per_fold", ratio(float64(pub), float64(len(fold))), "B")

	// Cluster: zero on the single-node workloads.
	var rpcMs []float64
	var routerSelf float64
	if st.router != nil {
		rpcMs, routerSelf = rpcTimes(spans, queries)
		rpcs := st.router.Metrics().RPCs.Value() - rpc0
		put("cluster.rpcs_per_query", float64(rpcs)/nAll, "count")
		put("cluster.hedge_ratio", ratio(float64(st.router.Metrics().HedgesFired.Value()-hedges0), float64(rpcs)), "ratio")
	} else {
		put("cluster.rpcs_per_query", 0, "count")
		put("cluster.hedge_ratio", 0, "ratio")
	}
	rs := summarize(rpcMs)
	put("cluster.rpc_ms_p50", zeroIfNaN(rs.P50), "ms")
	put("cluster.rpc_ms_p99", zeroIfNaN(rs.Tail), "ms")
	put("cluster.router_self_ms", routerSelf, "ms")

	put("harness.gen_late_p99_ms", finite(all.Late.Tail), "ms")
	put("harness.trace_overhead", traced.Analysis.P50/untraced.Analysis.P50, "ratio")

	res := &result{
		Correct:   cl.nWrong == 0,
		Attempted: all.Attempts,
		Failed:    all.Failed,
		Metrics:   m,
	}
	report := map[string]any{
		"untraced_requests": untraced,
		"traced_requests":   traced,
		"trace_overhead": map[string]any{
			"ratio":             m["harness.trace_overhead"].Value,
			"traced_analysis":   traced.Analysis.N,
			"untraced_analysis": untraced.Analysis.N,
		},
		"engine_options": serverDefaults(),
		"workload":       in.props,
		"cube_cache": map[string]any{
			"slots":          serverDefaults().CacheSlots,
			"slot_bytes":     cube.PageSize(node.ix.Schema()),
			"distinct_read":  dec.distinct,
			"distinct_bytes": dec.distinct * cube.PageSize(node.ix.Schema()),
		},
		"page_reads":    map[string]int64{"hot": hotD.reads, "cold": coldD.reads},
		"spans":         len(spans),
		"wrong_answers": cl.wrong,
	}
	fmt.Printf("traced analysis requests: p50 %.3f ms over %d (untraced %.3f ms over %d), %d spans, %d distinct cubes read of %d cache slots\n",
		traced.Analysis.P50, traced.Analysis.N, untraced.Analysis.P50, untraced.Analysis.N, len(spans), dec.distinct, serverDefaults().CacheSlots)
	for _, w := range cl.wrong {
		fmt.Fprintln(os.Stderr, "ledger: wrong answer:", w)
	}
	return res, report, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func zeroIfNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// layerSelfTimes joins each traced analysis query's client, server and
// backend spans by request id. It returns the server layer's mean self time
// (handler minus backend) and response size, and the time no layer span
// covers: client minus handler (loopback transport and client work), plus,
// on a single node, backend minus admission wait and the engine's stages.
func layerSelfTimes(spans []span, queries []queryRecord, routed bool) (selfMs, respBytes, unattributed, clientTotal float64) {
	byReq := map[uint64]map[string]span{}
	for _, s := range spans {
		if s.Req == 0 || (s.Name != "client" && s.Name != "server" && s.Name != "backend") {
			continue
		}
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]span{}
		}
		byReq[s.Req][s.Name] = s
	}
	var n float64
	for _, q := range queries {
		ss := byReq[q.req]
		c, okC := ss["client"]
		sv, okS := ss["server"]
		b, okB := ss["backend"]
		if !okC || !okS || !okB {
			continue
		}
		n++
		selfMs += float64(sv.dur()-b.dur()) / 1e6
		respBytes += float64(sv.Bytes)
		clientTotal += float64(c.dur())
		gap := float64(c.dur() - sv.dur())
		if !routed && q.trace != nil {
			inner := float64(b.dur()) - float64(q.wall.Nanoseconds()-q.stats.ElapsedNanos)
			for _, st := range q.trace.Stages {
				inner -= float64(st.Nanos)
			}
			if inner > 0 {
				gap += inner
			}
		}
		unattributed += gap
	}
	if n == 0 {
		return 0, 0, 0, 1
	}
	return selfMs / n, respBytes / n, unattributed, clientTotal
}

// rpcTimes returns every sub-plan RPC's duration and the router's mean self
// time: its backend span minus the part its RPC spans cover.
func rpcTimes(spans []span, queries []queryRecord) (rpcMs []float64, routerSelfMs float64) {
	rpcs := map[uint64][]span{}
	back := map[uint64]span{}
	for _, s := range spans {
		switch s.Name {
		case "cluster.rpc":
			rpcMs = append(rpcMs, float64(s.dur())/1e6)
			rpcs[s.Req] = append(rpcs[s.Req], s)
		case "backend":
			back[s.Req] = s
		}
	}
	var n float64
	for _, q := range queries {
		b, ok := back[q.req]
		if !ok {
			continue
		}
		n++
		routerSelfMs += float64(b.dur()-covered(rpcs[q.req], b)) / 1e6
	}
	if n == 0 {
		return rpcMs, 0
	}
	return rpcMs, routerSelfMs / n
}

// covered is how much of parent's interval the union of children covers.
func covered(children []span, parent span) time.Duration {
	sort.Slice(children, func(a, b int) bool { return children[a].Start < children[b].Start })
	var total, end int64
	end = parent.Start
	for _, c := range children {
		s, e := max(c.Start, end), min(c.End, parent.End)
		if e > s {
			total += e - s
			end = e
		}
	}
	return time.Duration(total)
}

// timePlans times plan.Optimize over each traced query's window, clipped to
// the coverage, and reports the cubes each query actually aggregated.
func timePlans(n *node, queries []queryRecord) (optUs, cubesPerQuery float64) {
	lo, hi, _ := n.ix.Coverage() // the deployment is never empty here
	maxLevel := temporal.Level(n.ix.Levels() - 1)
	var view plan.CacheView
	if c := n.eng.Cache(); c != nil {
		view = c
	}
	var total time.Duration
	var planned, cubes float64
	for _, r := range queries {
		from, to := max(r.q.From, lo), min(r.q.To, hi)
		if r.trace != nil {
			cubes += float64(r.trace.CubesFetched)
		}
		if from > to {
			continue
		}
		start := time.Now()
		_, err := plan.Optimize(from, to, maxLevel, n.ix, view)
		total += time.Since(start)
		if err == nil {
			planned++
		}
	}
	return ratio(float64(total.Nanoseconds())/1e3, planned), cubes / float64(len(queries))
}

// cubeTimes are the ledger-timed cube layer figures.
type cubeTimes struct {
	hotUs, coldUs, kernelUs float64
	distinct                int
}

// maxTimedCubes bounds the cubes the ledger decodes, and maxKernelQueries
// the queries it re-aggregates, after a traced pass.
const (
	maxTimedCubes    = 256
	maxKernelQueries = 64
)

// timeCubes decodes the cubes the traced queries read, as the server's
// default (verifying) fetch path does, and times the aggregation kernels: one
// CompileAgg per query, then one aggregate per cube.
func timeCubes(ctx context.Context, n *node, queries []queryRecord) (cubeTimes, error) {
	byName := map[string]temporal.Period{}
	for lvl := 0; lvl < n.ix.Levels(); lvl++ {
		for _, p := range n.ix.Periods(temporal.Level(lvl)) {
			byName[p.String()] = p
		}
	}
	touched := map[temporal.Period]bool{}
	for _, r := range queries {
		if r.trace == nil {
			continue
		}
		for _, b := range r.trace.Buckets {
			for _, pp := range b.Periods {
				if p, ok := byName[pp.Period]; ok {
					touched[p] = true
				}
			}
		}
	}
	ps := make([]temporal.Period, 0, len(touched))
	for p := range touched {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].Level != ps[b].Level {
			return ps[a].Level < ps[b].Level
		}
		return ps[a].Index < ps[b].Index
	})
	out := cubeTimes{distinct: len(ps)}
	if len(ps) > maxTimedCubes {
		ps = ps[:maxTimedCubes]
	}
	schema := n.ix.Schema()
	readers := map[temporal.Period]cube.Reader{}
	var hotN, coldN float64
	var hotT, coldT time.Duration
	for _, p := range ps {
		var buf []byte
		cold := false
		if id, ok := n.ix.PageOf(p); ok {
			buf = make([]byte, cube.PageSize(schema))
			if err := n.ix.Store().ReadPage(id, buf); err != nil {
				return out, err
			}
		} else if id, slots, isCold, ok := n.ix.ExtentOf(p); ok && isCold {
			cold = true
			buf = make([]byte, slots*cube.PageAlign)
			if err := n.ix.ColdStore().ReadPagesCtx(ctx, id, slots, buf); err != nil {
				return out, err
			}
		} else {
			continue
		}
		start := time.Now()
		rd, _, err := cube.UnmarshalPageReader(schema, buf, true)
		d := time.Since(start)
		if err != nil {
			return out, fmt.Errorf("decode %v: %w", p, err)
		}
		readers[p] = rd
		if cold {
			coldN++
			coldT += d
		} else {
			hotN++
			hotT += d
		}
	}
	out.hotUs = ratio(float64(hotT.Nanoseconds())/1e3, hotN)
	out.coldUs = ratio(float64(coldT.Nanoseconds())/1e3, coldN)

	var kernelT time.Duration
	var kernelCubes float64
	done := 0
	for _, r := range queries {
		if done == maxKernelQueries {
			break
		}
		if r.trace == nil {
			continue
		}
		f, err := core.CompileFilter(&r.q, geo.Default())
		if err != nil {
			return out, err
		}
		gb := cube.GroupBy{Element: r.q.GroupBy.ElementType, Country: r.q.GroupBy.Country,
			RoadType: r.q.GroupBy.RoadType, Update: r.q.GroupBy.UpdateType}
		var rds []cube.Reader
		for _, b := range r.trace.Buckets {
			for _, pp := range b.Periods {
				if rd, ok := readers[byName[pp.Period]]; ok {
					rds = append(rds, rd)
				}
			}
		}
		if len(rds) == 0 {
			continue
		}
		done++
		dst := map[cube.Key]uint64{}
		start := time.Now()
		ap := cube.CompileAgg(schema, f, gb)
		for _, rd := range rds {
			rd.AggregatePlanInto(ap, dst)
		}
		kernelT += time.Since(start)
		kernelCubes += float64(len(rds))
	}
	out.kernelUs = ratio(float64(kernelT.Nanoseconds())/1e3, kernelCubes)
	return out, nil
}
