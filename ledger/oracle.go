package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"rased"
	"rased/internal/core"
	"rased/internal/server"
)

// referenceOptions is the engine's reference form: no cube cache, no level
// optimization (daily cubes only), scalar aggregation kernels.
func referenceOptions() core.Options {
	return core.Options{ScalarKernels: true, FetchWorkers: 1}
}

// staticChecker judges answers from a deployment that does not change while
// it serves: every answer to one query must be byte-identical, and the first
// of each is kept for the reference comparison after the run.
type staticChecker struct {
	mu      sync.Mutex
	answers map[string][]byte
	queries map[string]core.Query
}

func newStaticChecker() *staticChecker {
	return &staticChecker{answers: map[string][]byte{}, queries: map[string]core.Query{}}
}

func (c *staticChecker) before(*request) any { return nil }

func (c *staticChecker) analysis(r *request, answer []byte, _ any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.answers[r.key]; ok {
		if !bytes.Equal(prev, answer) {
			return fmt.Errorf("answer differs from an earlier answer to the same query")
		}
		return nil
	}
	c.answers[r.key] = bytes.Clone(answer)
	c.queries[r.key] = r.q
	return nil
}

func (c *staticChecker) sample(r *request, body []byte) error { return checkSample(r, body) }

// liveChecker judges answers from a deployment that folds new data while it
// serves: a window's total may only grow. A request sent after another
// request's answer arrived must see at least that answer's total.
type liveChecker struct {
	mu      sync.Mutex
	floor   map[string]uint64 // highest total answered so far, per query
	queries map[string]core.Query
}

func newLiveChecker() *liveChecker {
	return &liveChecker{floor: map[string]uint64{}, queries: map[string]core.Query{}}
}

func (c *liveChecker) before(r *request) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floor[r.key]
}

func (c *liveChecker) analysis(r *request, answer []byte, token any) error {
	total, err := answerTotal(answer)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queries[r.key] = r.q
	if floor := token.(uint64); total < floor {
		return fmt.Errorf("total %d is below the %d answered before this request was sent", total, floor)
	}
	if total > c.floor[r.key] {
		c.floor[r.key] = total
	}
	return nil
}

func (c *liveChecker) sample(r *request, body []byte) error { return checkSample(r, body) }

// checkSample verifies that every sampled update satisfies the request's
// filters and that no more than N came back.
func checkSample(r *request, body []byte) error {
	var resp struct {
		Samples []server.SampleRecord `json:"samples"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	q := r.sample
	if len(resp.Samples) > q.N {
		return fmt.Errorf("%d samples, asked for at most %d", len(resp.Samples), q.N)
	}
	in := func(list []string, v string) bool {
		if list == nil {
			return true
		}
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}
	for _, s := range resp.Samples {
		switch {
		case s.Date < q.From || s.Date > q.To:
			return fmt.Errorf("sample dated %s outside [%s, %s]", s.Date, q.From, q.To)
		case !in(q.Countries, s.Country):
			return fmt.Errorf("sample in %q outside the country filter", s.Country)
		case !in(q.RoadTypes, s.RoadType):
			return fmt.Errorf("sample road type %q outside the filter", s.RoadType)
		case !in(q.ElementTypes, s.ElementType):
			return fmt.Errorf("sample element type %q outside the filter", s.ElementType)
		case !in(q.UpdateTypes, s.UpdateType):
			return fmt.Errorf("sample update type %q outside the filter", s.UpdateType)
		}
	}
	return nil
}

// encodeAnswer renders a result exactly as the server's answer prefix.
func encodeAnswer(res *core.Result) ([]byte, error) {
	body, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return answerPrefix(body)
}

// answerAll executes every query of qs on a deployment opened at dir with
// opts, on two workers, and returns the encoded answers by key.
func answerAll(dir string, opts core.Options, qs map[string]core.Query) (map[string][]byte, error) {
	d, err := rased.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	keys := make([]string, 0, len(qs))
	for k := range qs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string][]byte, len(keys))
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				res, err := d.Analyze(qs[keys[i]])
				var enc []byte
				if err == nil {
					enc, err = encodeAnswer(res)
				}
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("query %s: %w", keys[i], err)
				}
				out[keys[i]] = enc
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, first
}

// compareAnswers lists every key whose answer in got differs from want.
func compareAnswers(want, got map[string][]byte) []string {
	var bad []string
	for k, w := range want {
		if !bytes.Equal(w, got[k]) {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// updatesHeld counts the updates a deployment's index holds: every update
// lands in exactly one leaf-country cell, so the leaf-filtered total over the
// whole coverage is the update count.
func updatesHeld(dir string) (uint64, error) {
	d, err := rased.Open(dir, core.Options{LevelOptimization: true, FetchWorkers: 2})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	lo, hi, ok := d.Coverage()
	if !ok {
		return 0, fmt.Errorf("deployment %s is empty", dir)
	}
	res, err := d.Analyze(core.Query{From: lo, To: hi, Countries: leafCountries()})
	if err != nil {
		return 0, err
	}
	return res.Total, nil
}
