package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"rased/internal/core"
	"rased/internal/exec"
	"rased/internal/geo"
	"rased/internal/osm"
	"rased/internal/roads"
	"rased/internal/server"
	"rased/internal/temporal"
	"rased/internal/update"
	"rased/internal/workload"
)

// The deployment every workload serves: rased-ingest's simulated world over
// two years at a ten-road-type schema. Two years keep a run's three set-ups
// inside its time budget while the daily cubes still outnumber the daily
// cache slots 3.6 to 1, which is what the history workload needs. The world
// is the same for every run; the run's seed varies only the requests.
const (
	deployWorldSeed = 1
	deployDays      = 730
	deployRoadTypes = 10
	deployUpdates   = 100 // mean updates per simulated day
	deploySeedElems = 2000
	deployStart     = "2020-01-01"
)

// Live cadence for rased-server -live: one simulated day closes, and is
// compacted, every liveChunks × liveInterval.
const (
	liveInterval = 200 * time.Millisecond
	liveChunks   = 10
	liveSeed     = 1 // rased-server's default -live-seed
)

// Cluster shape for the routed workload.
const (
	clusterShards      = 2
	clusterGroups      = 8
	clusterReplication = 2
)

// sampleN is the row count of every map-sample request.
const sampleN = 100

// spec is one named workload.
type spec struct {
	name string
	why  string
	// rate is the open-loop offered rate of analysis queries per second:
	// 5-17% of the workload's closed-loop capacity_qps on a 2-CPU host at
	// the commit that introduced the ledger. Map samples come on top. At
	// half capacity the open-loop figures spread by a third and more from
	// run to run on such a host: queueing on the two connections magnifies
	// every slow spell of the host.
	rate   float64
	live   bool
	routed bool
}

var specs = []spec{
	{
		name: "history",
		why:  "Non-repeating day/week series over 30-365-day windows anywhere in two years of hot pages: the miss path (page read, decode) dominates.",
		rate: 30,
	},
	{
		name: "live",
		why:  "The session trace over the last 30 days plus the days being folded, against -live -compress-closed: folds, epoch publication and day-close compaction contend with reads.",
		rate: 80,
		live: true,
	},
	{
		name:   "routed",
		why:    "Zipf-tenant session trace over the last 180 days, which fits the cube cache, through -router over two -shard processes (8 groups, replication 2): fan-out, RPC, merge and hedging.",
		rate:   50,
		routed: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// coverage is the day range a freshly built deployment of days days covers.
func coverage(days int) (lo, hi temporal.Day) {
	lo, err := temporal.ParseDay(deployStart)
	if err != nil {
		panic(err) // deployStart is a constant
	}
	return lo, lo + temporal.Day(days) - 1
}

// leafCountries are the catalog's leaf country names, the values drill-downs
// and history filters pick from.
func leafCountries() []string {
	reg := geo.Default()
	out := make([]string, reg.NumCountries())
	for v := range out {
		out[v] = reg.Name(v)
	}
	return out
}

// inputs is a workload's generated request stream plus the properties the
// ledger records about it.
type inputs struct {
	sched []request // open-loop schedule, due-ordered
	props workloadProps
}

// workloadProps are the input properties a later claim must cite.
type workloadProps struct {
	Requests     int     `json:"requests"`
	Analysis     int     `json:"analysis_requests"`
	Samples      int     `json:"sample_requests"`
	RepeatShare  float64 `json:"repeat_share"`
	BulkShare    float64 `json:"bulk_share"`
	DistinctKeys int     `json:"distinct_queries"`
	WindowLo     string  `json:"window_lo"`
	WindowHi     string  `json:"window_hi"`
}

// generate builds the open-loop schedule of s for seed against a deployment
// of days days: rate×dur analysis requests plus their map samples, due over
// dur.
func generate(s spec, seed int64, dur time.Duration, days int) (*inputs, error) {
	n := int(s.rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	lo, hi := coverage(days)
	switch s.name {
	case "history":
		return historyInputs(seed, n, dur, lo, hi), nil
	case "live":
		// The last 30 days plus the days the server folds while the run
		// lasts; windows past the coverage are clipped by the engine.
		return traceInputs(seed, n, dur, hi-29, hi+temporal.Day(dur/(liveInterval*liveChunks)))
	default:
		return traceInputs(seed, n, dur, hi-179, hi)
	}
}

// traceSteady is where the internal/workload trace reaches its steady
// state: sessions start uniformly over the trace's minute and the longest
// (API polling) sessions last up to 16 s, so the arrival rate ramps up over
// the first seconds. The ledger takes its events from after the ramp.
const traceSteady = 20 * time.Second

// sliceCandidates is how many evenly spaced steady-state slices of the trace
// the ledger weighs; it sends the one whose class mix is closest to the
// steady state's own. Bulk scans are rare and heavy: in a slice taken at
// one fixed point their count varied by a third from seed to seed, and the
// queueing behind them with it.
const sliceCandidates = 16

// traceInputs time-scales the internal/workload session trace onto dur: n
// consecutive events from the trace's steady state keep their relative
// arrival offsets, stretched so the mean offered rate is n/dur. Each
// interactive drill-down also asks for map samples of its window at the
// same due time.
func traceInputs(seed int64, n int, dur time.Duration, lo, hi temporal.Day) (*inputs, error) {
	cfg := workload.Defaults(lo, hi, leafCountries())
	cfg.Seed = seed
	// Six times as many sessions as the run has events: the n events then
	// come from thousands of sessions, each cut to a few steps, so seeds
	// differ in which queries they send far more than in their class mix.
	// (With whole sessions, about one per six events, the API share of a
	// run varied by a fifth from seed to seed.) Think times stretch by the
	// same factor the arrival rate is scaled by.
	cfg.Sessions = 6 * n
	var evs []workload.Event
	var start, end time.Duration
	for {
		tr, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		first := sort.Search(len(tr.Events), func(i int) bool { return tr.Events[i].At >= traceSteady })
		last := sort.Search(len(tr.Events), func(i int) bool { return tr.Events[i].At >= cfg.Duration })
		if last-first > n {
			evs, start, end = representativeSlice(tr.Events[first:last], n)
			break
		}
		cfg.Sessions *= 2
	}
	scale := float64(dur) / float64(end-start)
	in := &inputs{}
	bulk := 0
	for i, e := range evs {
		due := time.Duration(float64(e.At-start) * scale)
		r := analysisRequest(e.Query, due, e.Tenant, e.Class.String())
		in.sched = append(in.sched, r)
		if e.Class == exec.ClassBulk {
			bulk++
		}
		if e.Class == exec.ClassInteractive && e.Query.Countries != nil {
			in.sched = append(in.sched, sampleRequest(e.Query, due, e.Tenant, e.Class.String(), seed+int64(i)))
		}
	}
	in.props = propsOf(in.sched, (&workload.Trace{Events: evs}).RepeatShare(), float64(bulk)/float64(n), lo, hi)
	return in, nil
}

// representativeSlice picks, among sliceCandidates evenly spaced runs of n
// consecutive events of steady (which holds more than n), the one whose
// class counts are closest, by chi-square distance, to steady's class
// shares. It returns the slice, its first event's offset, and the offset of
// the event after it, which ends the slice's span.
func representativeSlice(steady []workload.Event, n int) (evs []workload.Event, start, end time.Duration) {
	share := map[exec.Class]float64{}
	for _, e := range steady {
		share[e.Class] += 1 / float64(len(steady))
	}
	room := len(steady) - n - 1
	best := math.Inf(1)
	for k := 0; k < sliceCandidates; k++ {
		i := room * k / (sliceCandidates - 1)
		got := map[exec.Class]float64{}
		for _, e := range steady[i : i+n] {
			got[e.Class]++
		}
		var dist float64
		for c, s := range share {
			want := s * float64(n)
			dist += (got[c] - want) * (got[c] - want) / want
		}
		if dist < best {
			best = dist
			evs, start, end = steady[i:i+n], steady[i].At, steady[i+n].At
		}
	}
	return evs, start, end
}

// historyInputs draws n distinct analyst queries over the whole coverage:
// 30-365-day windows anchored uniformly, daily series up to 90 days and
// weekly beyond, with varied filters and group-bys, due at a uniform rate.
// Each query also asks for map samples of its window and filters.
func historyInputs(seed int64, n int, dur time.Duration, lo, hi temporal.Day) *inputs {
	rng := rand.New(rand.NewSource(seed))
	countries := leafCountries()
	var roadNames []string
	for v := 0; v < deployRoadTypes; v++ {
		roadNames = append(roadNames, roads.Name(v))
	}
	pick := func(names []string, k int) []string {
		perm := rng.Perm(len(names))[:k]
		sort.Ints(perm)
		out := make([]string, k)
		for i, p := range perm {
			out[i] = names[p]
		}
		return out
	}
	cov := int(hi-lo) + 1
	seen := map[string]bool{}
	in := &inputs{}
	for len(seen) < n {
		span := 30 + rng.Intn(min(365, cov)-29)
		from := lo + temporal.Day(rng.Intn(cov-span+1))
		q := core.Query{From: from, To: from + temporal.Day(span-1)}
		q.GroupBy.Date = core.ByDay
		if span > 90 {
			q.GroupBy.Date = core.ByWeek
		}
		switch rng.Intn(4) {
		case 1:
			q.Countries = pick(countries, 1+rng.Intn(3))
		case 2:
			q.RoadTypes = pick(roadNames, 1+rng.Intn(3))
		case 3:
			q.ElementTypes = pick(osm.ElementTypeNames(), 1)
			q.UpdateTypes = pick(update.TypeNames(), 1+rng.Intn(2))
		}
		switch rng.Intn(4) {
		case 1:
			q.GroupBy.Country = true
		case 2:
			q.GroupBy.RoadType = true
		case 3:
			q.GroupBy.UpdateType = true
		}
		k := core.QueryKey(q)
		if seen[k] {
			continue
		}
		i := len(seen)
		seen[k] = true
		due := time.Duration(float64(dur) * float64(i) / float64(n))
		tenant := "h" + strconv.Itoa(rng.Intn(8))
		in.sched = append(in.sched, analysisRequest(q, due, tenant, exec.ClassAPI.String()),
			sampleRequest(q, due, tenant, exec.ClassAPI.String(), seed+int64(i)))
	}
	in.props = propsOf(in.sched, 0, 0, lo, hi)
	return in
}

func propsOf(sched []request, repeat, bulk float64, lo, hi temporal.Day) workloadProps {
	p := workloadProps{Requests: len(sched), RepeatShare: repeat, BulkShare: bulk, WindowLo: lo.String(), WindowHi: hi.String()}
	keys := map[string]bool{}
	for i := range sched {
		if sched[i].kind == kindSample {
			p.Samples++
			continue
		}
		p.Analysis++
		keys[sched[i].key] = true
	}
	p.DistinctKeys = len(keys)
	return p
}

// analysisRequest encodes q as the POST body of /api/analysis.
func analysisRequest(q core.Query, due time.Duration, tenant, class string) request {
	ar := server.AnalysisRequest{
		From:         q.From.String(),
		To:           q.To.String(),
		ElementTypes: q.ElementTypes,
		Countries:    q.Countries,
		RoadTypes:    q.RoadTypes,
		UpdateTypes:  q.UpdateTypes,
		Granularity:  q.GroupBy.Date.String(),
	}
	for _, g := range []struct {
		on   bool
		name string
	}{{q.GroupBy.ElementType, "element_type"}, {q.GroupBy.Country, "country"}, {q.GroupBy.RoadType, "road_type"}, {q.GroupBy.UpdateType, "update_type"}} {
		if g.on {
			ar.GroupBy = append(ar.GroupBy, g.name)
		}
	}
	body, err := json.Marshal(ar)
	if err != nil {
		panic(fmt.Sprintf("encode analysis request: %v", err)) // plain struct
	}
	return request{kind: kindAnalysis, due: due, tenant: tenant, class: class, q: q, key: core.QueryKey(q), body: body}
}

// sampleRequest asks for map samples of q's window and filters.
func sampleRequest(q core.Query, due time.Duration, tenant, class string, seed int64) request {
	sr := server.SampleRequest{
		From:         q.From.String(),
		To:           q.To.String(),
		Countries:    q.Countries,
		RoadTypes:    q.RoadTypes,
		ElementTypes: q.ElementTypes,
		UpdateTypes:  q.UpdateTypes,
		N:            sampleN,
		Seed:         seed,
	}
	body, err := json.Marshal(sr)
	if err != nil {
		panic(fmt.Sprintf("encode sample request: %v", err)) // plain struct
	}
	return request{kind: kindSample, due: due, tenant: tenant, class: class, q: q, sample: sr, key: string(body), body: body}
}

// analysisOnly returns the analysis requests of sched, the closed loop's
// inputs.
func analysisOnly(sched []request) []request {
	var out []request
	for _, r := range sched {
		if r.kind == kindAnalysis {
			out = append(out, r)
		}
	}
	return out
}
