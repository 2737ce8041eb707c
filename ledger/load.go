package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rased/internal/core"
	"rased/internal/server"
)

// maxConns is the client's connection and worker count: one per CPU, so
// the generator never runs more threads than the box has.
func maxConns() int { return runtime.NumCPU() }

// reqKind separates the two request types a dashboard sends.
type reqKind int

const (
	kindAnalysis reqKind = iota
	kindSample
)

// request is one scheduled HTTP call. The body is prebuilt so the generator
// spends no time encoding on the send path.
type request struct {
	kind   reqKind
	due    time.Duration // open-loop due offset from the phase start
	tenant string
	class  string
	q      core.Query           // kindAnalysis
	sample server.SampleRequest // kindSample
	key    string               // answer identity: core.QueryKey, or the sample body
	body   []byte
}

// path is the endpoint a request posts to.
func (r *request) path() string {
	if r.kind == kindSample {
		return "/api/samples"
	}
	return "/api/analysis"
}

// outcome is one completed request as the client saw it.
type outcome struct {
	kind    reqKind
	class   string
	id      uint64 // request id when the client stamps ids, else 0
	ok      bool
	latency time.Duration // from due (open loop) or from send (closed loop)
	late    time.Duration // send time minus due time (open loop only)
	at      time.Duration // due (open loop) or completion (closed loop) offset from the start of its slice or segment
}

// ms is the outcome's latency in milliseconds, +Inf when it failed.
func (o outcome) ms() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return float64(o.latency) / 1e6
}

// checker judges every answer the client receives; a non-nil error is a
// wrong answer, which fails the run (it is not a failed request).
type checker interface {
	// before is called just before an analysis request is sent.
	before(r *request) any
	// analysis checks one 2xx analysis response; answer is the body up to its
	// "stats" member (rows and total, byte-exact as the server encoded them).
	analysis(r *request, answer []byte, token any) error
	// sample checks one 2xx samples response body.
	sample(r *request, body []byte) error
}

// client sends requests to one base URL over at most conns connections.
type client struct {
	base  string
	http  *http.Client
	conns int
	check checker

	// reqID, when set, gives the open-loop request at schedule position i
	// the id its header carries, so a traced server can join its spans to
	// the client's.
	reqID   func(i int) uint64
	onReply func(id uint64, r *request, sent, done time.Time, bytes int)

	mu     sync.Mutex
	wrong  []string
	nWrong int
}

// maxWrongKept bounds the wrong-answer messages a run keeps for its report.
const maxWrongKept = 20

func newClient(base string, conns int, check checker) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{
		base:  base,
		http:  &http.Client{Transport: tr, Timeout: 20 * time.Second},
		conns: conns,
		check: check,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) addWrong(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nWrong++
	if len(c.wrong) < maxWrongKept {
		c.wrong = append(c.wrong, err.Error())
	}
}

// answerPrefix cuts an analysis response body before its "stats" member:
// rows and total are a pure function of the query and the data, the stats
// (timings, cache hits) are not.
func answerPrefix(body []byte) ([]byte, error) {
	i := bytes.LastIndex(body, []byte(`,"stats":`))
	if i < 0 {
		return nil, errors.New("response has no stats member")
	}
	return body[:i], nil
}

// answerTotal reads the total from an answer prefix.
func answerTotal(answer []byte) (uint64, error) {
	i := bytes.LastIndex(answer, []byte(`"total":`))
	if i < 0 {
		return 0, errors.New("answer has no total")
	}
	return strconv.ParseUint(string(answer[i+len(`"total":`):]), 10, 64)
}

// do sends one request, stamped with id unless it is 0, and reports whether
// it succeeded with a 2xx. Wrong answers are recorded on the client, not
// returned.
func (c *client) do(ctx context.Context, r *request, id uint64) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path(), bytes.NewReader(r.body))
	if err != nil {
		c.addWrong(fmt.Errorf("build request: %v", err))
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.DefaultTenantHeader, r.tenant)
	req.Header.Set(server.ClassHeader, r.class)
	if id != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	var token any
	if r.kind == kindAnalysis {
		token = c.check.before(r)
	}
	sent := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil || resp.StatusCode/100 != 2 {
		return false
	}
	if c.onReply != nil {
		c.onReply(id, r, sent, done, len(body))
	}
	switch r.kind {
	case kindAnalysis:
		answer, err := answerPrefix(body)
		if err == nil {
			err = c.check.analysis(r, answer, token)
		}
		if err != nil {
			c.addWrong(fmt.Errorf("analysis %s: %v", r.key, err))
		}
	case kindSample:
		if err := c.check.sample(r, body); err != nil {
			c.addWrong(fmt.Errorf("sample %s: %v", r.key, err))
		}
	}
	return true
}

// sleepUntil waits for t; the timer overshoot is part of the lateness the
// open loop reports.
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

// openLoop sends sched on its due times over c.conns connections. A request
// that finds every connection busy waits, and that wait counts: latency runs
// from the due time, so one stalled request charges every request queued
// behind it, and the send-minus-due lateness is reported per request.
func (c *client) openLoop(ctx context.Context, sched []request) []outcome {
	out := make([]outcome, len(sched))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				r := &sched[i]
				var id uint64
				if c.reqID != nil {
					id = c.reqID(i)
				}
				due := start.Add(r.due)
				sleepUntil(ctx, due)
				sent := time.Now()
				ok := c.do(ctx, r, id)
				out[i] = outcome{kind: r.kind, class: r.class, id: id, ok: ok, latency: time.Since(due), late: sent.Sub(due), at: r.due}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop has each of c.conns connections send analysis requests back to
// back, cycling through reqs from position *next on, until d has passed; it
// leaves *next after the last request taken, so successive segments continue
// through reqs instead of replaying its head. It returns the outcomes and the
// segment's wall time (up to the last completion).
func (c *client) closedLoop(ctx context.Context, reqs []request, next *atomic.Int64, d time.Duration) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]outcome, c.conns)
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := &reqs[int(next.Add(1)-1)%len(reqs)]
				sent := time.Now()
				ok := c.do(ctx, r, 0)
				done := time.Now()
				per[w] = append(per[w], outcome{kind: r.kind, class: r.class, ok: ok, latency: done.Sub(sent), at: done.Sub(start)})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []outcome
	for _, o := range per {
		out = append(out, o...)
	}
	return out, elapsed
}

// phaseStats summarizes one phase's outcomes per request kind.
type phaseStats struct {
	Analysis latencySummary            `json:"analysis"`
	ByClass  map[string]latencySummary `json:"analysis_by_class"`
	Samples  latencySummary            `json:"samples"`
	Late     latencySummary            `json:"generator_late"`
	Attempts int                       `json:"attempts"`
	Failed   int                       `json:"failed"`
}

func summarizePhase(out []outcome) phaseStats {
	var an, sm, late []float64
	byClass := map[string][]float64{}
	st := phaseStats{Attempts: len(out), ByClass: map[string]latencySummary{}}
	for _, o := range out {
		if !o.ok {
			st.Failed++
		}
		late = append(late, float64(o.late)/1e6)
		if o.kind == kindSample {
			sm = append(sm, o.ms())
		} else {
			an = append(an, o.ms())
			byClass[o.class] = append(byClass[o.class], o.ms())
		}
	}
	for c, ms := range byClass {
		st.ByClass[c] = summarize(ms)
	}
	st.Analysis = summarize(an)
	st.Samples = summarize(sm)
	st.Late = summarize(late)
	return st
}

// splitByDue cuts a due-ordered schedule into n consecutive slices of span
// each, every slice's due times counted from its own start; requests due
// past n spans go to the last slice.
func splitByDue(sched []request, n int, span time.Duration) [][]request {
	out := make([][]request, n)
	for _, r := range sched {
		k := min(int(r.due/span), n-1)
		r.due -= time.Duration(k) * span
		out[k] = append(out[k], r)
	}
	return out
}
