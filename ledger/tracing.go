package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rased/internal/cluster"
	"rased/internal/core"
	"rased/internal/pagestore"
	"rased/internal/server"
	"rased/internal/update"
	"rased/internal/warehouse"
)

// reqIDHeader carries the client's request id to the traced server, so the
// spans of one request share an identifier across the HTTP hop.
const reqIDHeader = "X-Ledger-Request"

type reqIDKey struct{}

func withReqID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

func reqIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqIDKey{}).(uint64) // absent: 0, not tied to a request
	return id
}

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer's epoch; Parent names the layer that made the call.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; they are written out when the run
// ends. Off, record is a single atomic load.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// traces reports whether work for request id is traced while the tracer is
// on. Work tied to no request (id 0: folds, shard-side reads) is traced
// whenever the tracer is on.
func (t *tracer) traces(id uint64) bool { return t.on.Load() && (id == 0 || tracedID(id)) }

// requestIDs gives every request of sched a unique id whose low bit says
// whether it is traced. Analysis requests alternate in schedule order
// between traced and untraced, and a map sample follows the analysis request
// it belongs to, so both halves see the same load and the same mix of
// queries, and their latency difference is the cost of tracing.
func requestIDs(sched []request) []uint64 {
	ids := make([]uint64, len(sched))
	var nAnalysis, traced uint64
	for i := range sched {
		if sched[i].kind == kindAnalysis {
			traced = nAnalysis % 2
			nAnalysis++
		}
		ids[i] = uint64(i+1)<<1 | traced
	}
	return ids
}

// tracedID reports whether request id falls in the traced half.
func tracedID(id uint64) bool { return id&1 == 1 }

func (t *tracer) record(name, parent string, req uint64, start, end time.Time, bytes int64) {
	if !t.traces(req) {
		return
	}
	s := span{Name: name, Parent: parent, Req: req, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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

// ioCounters are the page I/O tallies of one tier across every wrapped
// store.
type ioCounters struct {
	reads      atomic.Int64 // pages
	readBytes  atomic.Int64
	readNanos  atomic.Int64
	writeBytes atomic.Int64
}

type ioSnapshot struct{ reads, readBytes, readNanos, writeBytes int64 }

func (c *ioCounters) snapshot() ioSnapshot {
	return ioSnapshot{c.reads.Load(), c.readBytes.Load(), c.readNanos.Load(), c.writeBytes.Load()}
}

func (a ioSnapshot) minus(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.reads - b.reads, a.readBytes - b.readBytes, a.readNanos - b.readNanos, a.writeBytes - b.writeBytes}
}

// timingPager counts and times the page I/O the index asks of one store.
type timingPager struct {
	pagestore.Pager
	name string // span name: pagestore.hot or pagestore.cold
	c    *ioCounters
	tr   *tracer
}

func (p *timingPager) read(ctx context.Context, pages int, buf []byte, do func() error) error {
	start := time.Now()
	err := do()
	end := time.Now()
	p.c.reads.Add(int64(pages))
	p.c.readBytes.Add(int64(len(buf)))
	p.c.readNanos.Add(end.Sub(start).Nanoseconds())
	p.tr.record(p.name, "core.aggregate", reqIDFrom(ctx), start, end, int64(len(buf)))
	return err
}

func (p *timingPager) ReadPage(id int, buf []byte) error {
	return p.read(context.Background(), 1, buf, func() error { return p.Pager.ReadPage(id, buf) })
}

func (p *timingPager) ReadPageCtx(ctx context.Context, id int, buf []byte) error {
	return p.read(ctx, 1, buf, func() error { return p.Pager.ReadPageCtx(ctx, id, buf) })
}

func (p *timingPager) ReadPagesCtx(ctx context.Context, id, n int, buf []byte) error {
	return p.read(ctx, n, buf, func() error { return p.Pager.ReadPagesCtx(ctx, id, n, buf) })
}

func (p *timingPager) WritePage(id int, buf []byte) error {
	p.c.writeBytes.Add(int64(len(buf)))
	return p.Pager.WritePage(id, buf)
}

func (p *timingPager) Append(buf []byte) (int, error) {
	p.c.writeBytes.Add(int64(len(buf)))
	return p.Pager.Append(buf)
}

func (p *timingPager) WriteExtent(id int, buf []byte) error {
	p.c.writeBytes.Add(int64(len(buf)))
	return p.Pager.WriteExtent(id, buf)
}

func (p *timingPager) AppendExtent(buf []byte) (int, int, error) {
	p.c.writeBytes.Add(int64(len(buf)))
	return p.Pager.AppendExtent(buf)
}

// queryRecord is what the traced backend keeps per analysis query.
type queryRecord struct {
	req   uint64
	q     core.Query
	wall  time.Duration
	stats core.ExecStats
	trace *core.QueryTrace
}

// tracedBackend times the server's calls into the serving backend (an
// engine over a deployment, or the cluster router). For a traced request it
// asks the engine for its stage timings and strips them again, so the
// response bytes match an untraced answer.
type tracedBackend struct {
	server.Backend
	tr *tracer

	mu      sync.Mutex
	queries []queryRecord
	samples []time.Duration
}

func (b *tracedBackend) AnalyzeContext(ctx context.Context, q core.Query) (*core.Result, error) {
	req := reqIDFrom(ctx)
	on := b.tr.traces(req)
	q.Trace = on
	start := time.Now()
	res, err := b.Backend.AnalyzeContext(ctx, q)
	end := time.Now()
	if !on {
		return res, err
	}
	b.tr.record("backend", "server", req, start, end, 0)
	if err != nil {
		return res, err
	}
	rec := queryRecord{req: req, q: q, wall: end.Sub(start), stats: res.Stats, trace: res.Trace}
	res.Trace = nil
	b.mu.Lock()
	b.queries = append(b.queries, rec)
	b.mu.Unlock()
	return res, nil
}

// SampleContext is the server's sample path (it prefers a backend that takes
// the request context); it keeps the router's context-aware lookup
// reachable through the wrapper.
func (b *tracedBackend) SampleContext(ctx context.Context, q warehouse.SampleQuery) ([]update.Record, error) {
	start := time.Now()
	var recs []update.Record
	var err error
	if sc, ok := b.Backend.(interface {
		SampleContext(context.Context, warehouse.SampleQuery) ([]update.Record, error)
	}); ok {
		recs, err = sc.SampleContext(ctx, q)
	} else {
		recs, err = b.Backend.Sample(q)
	}
	if req := reqIDFrom(ctx); b.tr.traces(req) {
		end := time.Now()
		b.tr.record("warehouse.sample", "server", req, start, end, 0)
		b.mu.Lock()
		b.samples = append(b.samples, end.Sub(start))
		b.mu.Unlock()
	}
	return recs, err
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// tracedHandler times each request through the server layer, joining it to
// the client's request id.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64) // absent: 0
		r = r.WithContext(withReqID(r.Context(), id))
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		tr.record("server", "client", id, start, time.Now(), cw.n)
	})
}

// timingTransport times the router's sub-plan RPCs.
type timingTransport struct {
	cluster.Transport
	tr *tracer
}

func (t *timingTransport) Exec(ctx context.Context, addr string, req *cluster.ExecRequest) (*core.Result, error) {
	start := time.Now()
	res, err := t.Transport.Exec(ctx, addr, req)
	t.tr.record("cluster.rpc", "router", reqIDFrom(ctx), start, time.Now(), 0)
	return res, err
}
