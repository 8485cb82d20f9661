package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/bench/gen"
	"repro/bench/harness"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/spatialdb"
)

// readers is how many closed-loop clients a query workload runs: the
// machine has two cores, so at most two requests are ever in flight.
const readers = 2

// kept is a response set aside for the answer check.
type kept struct {
	index int
	body  []byte
}

// readerLog is what one query client recorded.
type readerLog struct {
	keepEvery int // one response in this many is kept for the answer check; 0: none
	samples   []harness.Sample
	kept      []kept
	respBytes int64
	responses int64
}

// queryLoop sends the stream's requests to target's /query. Indexes come
// from a counter the clients share, so together they walk the stream in
// order.
func queryLoop(target *harness.Proc, next *atomic.Int64, stream func(int) gen.Query, log *readerLog) loop {
	url := target.URL() + "/query"
	return func(c *harness.Client, t0 time.Time, stop *atomic.Bool) {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			body := stream(i).Body()
			start := time.Now()
			status, resp, err := c.Do(http.MethodPost, url, body)
			end := time.Now()
			ok := err == nil && status == http.StatusOK
			log.samples = append(log.samples, harness.Sample{End: end.Sub(t0), Lat: end.Sub(start), OK: ok})
			if !ok {
				time.Sleep(time.Millisecond) // a dead server must not spin the client
				continue
			}
			log.respBytes += int64(len(resp))
			log.responses++
			if log.keepEvery > 0 && i%log.keepEvery == 0 {
				log.kept = append(log.kept, kept{index: i, body: append([]byte(nil), resp...)})
			}
		}
	}
}

// queryResponse is the part of a /query reply the checks read.
type queryResponse struct {
	Solutions []struct {
		Names []string `json:"names"`
	} `json:"solutions"`
	Count     int  `json:"count"`
	Truncated bool `json:"truncated"`
}

// tuples renders a response's solutions as a sorted list of name tuples.
func (qr *queryResponse) tuples() []string {
	out := make([]string, len(qr.Solutions))
	for i, s := range qr.Solutions {
		out[i] = strings.Join(s.Names, ",")
	}
	sort.Strings(out)
	return out
}

// reference answers queries in-process, sharing neither index backend
// nor planner with the server: the dataset in a store of another index
// kind, each text compiled by the static query.Compile in its own order.
type reference struct {
	store *spatialdb.Store
	plans map[string]*query.Plan
}

func newReference(d *gen.Dataset, kind spatialdb.IndexKind) (*reference, error) {
	// One BulkInsert per layer: the reference need not mirror the
	// server's batches, and a single packed build is the cheapest load.
	store := spatialdb.NewStore(d.Universe, kind)
	if err := d.Populate(store, 0); err != nil {
		return nil, fmt.Errorf("reference store: %w", err)
	}
	return &reference{store: store, plans: map[string]*query.Plan{}}, nil
}

func tuplesOf(res *query.Result) []string {
	out := make([]string, len(res.Solutions))
	for i, s := range res.Solutions {
		out[i] = strings.Join(s.Names(), ",")
	}
	sort.Strings(out)
	return out
}

// answer returns the full solution set of q as sorted name tuples.
func (ref *reference) answer(ctx context.Context, q gen.Query) ([]string, error) {
	plan := ref.plans[q.Text]
	if plan == nil {
		parsed, err := lang.Parse(q.Text)
		if err != nil {
			return nil, err
		}
		if plan, err = query.Compile(parsed, ref.store); err != nil {
			return nil, err
		}
		ref.plans[q.Text] = plan
	}
	res, err := plan.RunCtx(ctx, ref.store, q.Params(), query.DefaultOptions)
	if err != nil {
		return nil, err
	}
	if res.Stats.Cancelled {
		return nil, context.DeadlineExceeded
	}
	return tuplesOf(res), nil
}

// naive returns the same set by brute force over the cross product.
func (ref *reference) naive(ctx context.Context, q gen.Query) ([]string, error) {
	parsed, err := lang.Parse(q.Text)
	if err != nil {
		return nil, err
	}
	res, err := query.RunNaiveCtx(ctx, parsed, ref.store, q.Params(), query.Options{})
	if err != nil {
		return nil, err
	}
	if res.Stats.Cancelled {
		return nil, context.DeadlineExceeded
	}
	return tuplesOf(res), nil
}

// agrees reports whether a server response is right given the full
// reference set: equal as sets, or — for a response cut short by its
// limit — a subset of the right size.
func agrees(qr *queryResponse, limit int, want []string) bool {
	got := qr.tuples()
	if limit <= 0 || len(want) <= limit {
		return slices.Equal(got, want)
	}
	if len(got) != limit {
		return false
	}
	set := make(map[string]bool, len(want))
	for _, t := range want {
		set[t] = true
	}
	for _, t := range got {
		if !set[t] {
			return false
		}
	}
	return true
}

// checkTimeout is when an answer check that has not finished fails the
// run: a check cut short must not pass for a check passed.
const checkTimeout = 60 * time.Second

// checkKept compares every kept response with the reference; with a
// naive budget, as many as fit it are also compared with brute force.
// The responses were counted as attempted when they were sent; a wrong
// one adds to failed.
func checkKept(rep *report, ref *reference, stream func(int) gen.Query, logs []*readerLog, naiveBudget time.Duration) {
	var all []kept
	for _, log := range logs {
		all = append(all, log.kept...)
	}
	start := time.Now()
	naiveDeadline := start.Add(naiveBudget)
	ctx, cancelAll := context.WithTimeout(context.Background(), checkTimeout)
	defer cancelAll()
	checked, naiveChecked, nonEmpty, unreached := 0, 0, 0, 0
	for i, k := range all {
		q := stream(k.index)
		var qr queryResponse
		if err := json.Unmarshal(k.body, &qr); err != nil {
			rep.fail(1, "request %d: undecodable response: %v", k.index, err)
			continue
		}
		want, err := ref.answer(ctx, q)
		if errors.Is(err, context.DeadlineExceeded) {
			unreached = len(all) - i
			break
		}
		if err != nil {
			rep.fail(1, "request %d: reference failed: %v", k.index, err)
			continue
		}
		checked++
		if len(want) > 0 {
			nonEmpty++
		}
		if !agrees(&qr, q.Limit, want) {
			rep.fail(1, "request %d: server returned %d tuples, reference has %d: %s", k.index, len(qr.Solutions), len(want), q.Text)
			continue
		}
		if time.Now().Before(naiveDeadline) {
			nctx, cancel := context.WithDeadline(ctx, naiveDeadline)
			truth, err := ref.naive(nctx, q)
			cancel()
			if err == nil {
				naiveChecked++
				if !slices.Equal(truth, want) {
					rep.fail(1, "request %d: reference has %d tuples, brute force %d: %s", k.index, len(want), len(truth), q.Text)
				}
			}
		}
	}
	if unreached > 0 {
		rep.fail(unreached, "the answer check did not reach %d of %d kept responses in %v", unreached, len(all), checkTimeout)
	}
	if naiveBudget > 0 && naiveChecked == 0 {
		rep.fail(1, "no kept response was compared with brute force in %v", naiveBudget)
	}
	rep.addNote("check.answers_compared", float64(checked), "count", fmt.Sprintf("of %d kept, in %.1f s", len(all), time.Since(start).Seconds()))
	rep.add("check.answers_nonempty", float64(nonEmpty), "count")
	rep.add("check.answers_vs_naive", float64(naiveChecked), "count")
}
