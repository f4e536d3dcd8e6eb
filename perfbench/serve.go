package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serve-mix drives serve.New behind a loopback listener as an open loop
// at one fixed rate. Fresh small campaigns (never submitted before, so
// engine- and queue-bound misses) are submitted through POST
// /v1/campaigns in bursts, interleaved on one connection with replays of
// the campaigns cached during set-up (served from the LRU, bound by the
// serve fan-out); the misses' streams are read on the other connection.
// README.md gives the criterion behind each size.
const (
	serveRuns    = 2 // runs per fresh campaign
	catalogRuns  = 8 // runs per replayed campaign, with link traces on
	servePackets = 6 // packets per run
	serveSample  = 4 // misses re-run through a local Streamer and byte-compared
	// missBurst is how many fresh campaigns of one scenario are submitted
	// together. With one runner the second waits for one whole job and
	// the third for two, so the queue does a fixed amount of work on
	// every burst, and the miss median falls in the middle of the three.
	missBurst = 3
	// serveEngineWorkers is the daemon's engine workers per job, and
	// those of the local Streamer runs that give sampled misses their
	// standalone first-row time. One leaves the other processor to the
	// serve fan-out and the clients, so a replay's latency measures the
	// replay path rather than which scheduler quantum of a saturating
	// engine it lands behind.
	serveEngineWorkers = 1
)

var serveScenarios = []string{"alice-bob", "x", "chain"}

// serveCatalog is the replay catalog: one fixed campaign per scenario,
// independent of the workload seed, whose summaries also give
// serve-mix's gain_err_pct.
func serveCatalog() []serve.Request {
	var out []serve.Request
	for _, s := range serveScenarios {
		out = append(out, serve.Request{Scenario: s, Runs: catalogRuns, Packets: servePackets, Seed: 1, Trace: true})
	}
	return out
}

// missRequest is the i-th fresh campaign of a run: bursts of one
// scenario, the scenarios in a seeded order, repeated, each campaign
// with a seed never used before.
func missRequest(order []int, wseed int64, i int) serve.Request {
	n, b := len(order), max(i/missBurst, 0)
	return serve.Request{
		Scenario: serveScenarios[order[b%n]],
		Runs:     serveRuns,
		Packets:  servePackets,
		Seed:     deriveSeed(wseed, 1<<32+uint64(i)),
	}
}

// streamOptionsFor is the campaign a serve.Request names, built the way
// the CLI builds it, for the byte-identity check of served misses.
func streamOptionsFor(req serve.Request, workers int) experiments.StreamOptions {
	var cfg sim.Config
	cfg.SNRdB = sim.Ptr(25)
	cfg.Topology.Fading = channel.FadingSpec{Kind: channel.FadingStatic}
	cfg.Packets = req.Packets
	return experiments.StreamOptions{
		Options: experiments.Options{Runs: req.Runs, Sim: cfg, Seed: req.Seed, Workers: workers},
		Trace:   req.Trace,
	}
}

// fixedRate returns n arrival offsets window/n apart, all shifted by one
// seeded phase: a constant offered rate, as a paced client sends it.
// Misses arrive this way so that the queue they build reflects the
// service time, not the luck of a burst.
func fixedRate(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	step := float64(window) / float64(n)
	phase := rng.Float64()
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + phase) * step)
	}
	return out
}

// randomTimes returns n arrival offsets drawn uniformly over the window,
// in order: a Poisson stream of n arrivals. Replays arrive this way so
// that they sample every phase of the engine's work; at a rate locked to
// the misses' they would all land at the same point of each job.
func randomTimes(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	slices.Sort(out)
	return out
}

type serveFixture struct {
	srv     *serve.Server
	ts      *httptest.Server
	catalog [][]byte
	gains   map[string][2]poolMean // catalog gains by topology
}

func (f *serveFixture) close() {
	f.ts.Close()
	f.srv.Close()
}

func postOnce(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

func splitLines(body []byte) [][]byte {
	body = bytes.TrimSuffix(body, []byte("\n"))
	if len(body) == 0 {
		return nil
	}
	return bytes.Split(body, []byte("\n"))
}

// startServe starts the daemon and pre-warms the replay catalog.
func startServe(e env) (*serveFixture, error) {
	srv := serve.New(serve.Config{Workers: serveEngineWorkers, Runners: 1, QueueDepth: 64, CacheBytes: 64 << 20, WriteTimeout: 10 * time.Second})
	f := &serveFixture{srv: srv, ts: httptest.NewServer(srv), gains: map[string][2]poolMean{}}
	url := f.ts.URL + "/v1/stream"
	reqs := append(serveCatalog(), missRequest([]int{0}, e.Seed, -1))
	for i, req := range reqs {
		body, _ := json.Marshal(req)
		status, got, err := postOnce(url, body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, got)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("pre-warming %s seed %d: %v", req.Scenario, req.Seed, err)
		}
		lines := splitLines(got)
		if bad, why := checkStream(lines, req.Runs, req.Seed, "msk"); bad > 0 {
			f.close()
			return nil, fmt.Errorf("pre-warming %s seed %d: %v", req.Scenario, req.Seed, why)
		}
		if i == len(reqs)-1 {
			break // the warm-up miss is not part of the catalog
		}
		f.catalog = append(f.catalog, got)
		g := f.gains[req.Scenario]
		var sum wireSummary
		json.Unmarshal(lines[req.Runs], &sum) // checked by checkStream
		for j, key := range []string{"gain_over_routing", "gain_over_cope"} {
			if sk, err := decodeSketch(sum.Sketches[key]); err == nil {
				g[j].add(sk.Mean(), sk.Len())
			}
		}
		f.gains[req.Scenario] = g
	}
	return f, nil
}

// scrapeMetrics reads the daemon's /metrics into name → value.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

type serveRun struct {
	x        endToEnd
	misses   []reply
	replays  []reply
	missReqs []serve.Request
	before   map[string]float64
	after    map[string]float64
	evicted  int64
	rejected int
	lag      float64 // ms, the most any request went out after its due time
	sampled  []*streamedCampaign
}

func runServeMix(e env) (*outcome, error) {
	out := &outcome{}
	r, err := serveMix(e, nil, out)
	if err != nil {
		return nil, err
	}
	r.x.PeakRSS = peakRSSMB()
	r.x.emit(out)
	return out, nil
}

func serveMix(e env, tr *tracer, out *outcome) (*serveRun, error) {
	var f *serveFixture
	setup, err := setupReps(e, func(last bool) error {
		var err error
		if f, err = startServe(e); err != nil {
			return err
		}
		if !last {
			f.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	r := &serveRun{x: endToEnd{SetupS: setup}}

	// The schedule: each kind at its configured rate over the window,
	// miss bursts evenly spaced and replays at random times, scenarios
	// and catalog entries in a seeded rotation. Submissions and replays
	// share one connection; the misses' streams are read on the other.
	rng := rand.New(rand.NewSource(e.Seed))
	nBurst := max(int(math.Round(e.Sizes.MissRate*e.Seconds.Seconds()/missBurst)), 1)
	nReplay := max(int(math.Round(e.Sizes.ReplayRate*e.Seconds.Seconds())), 1)
	var missCalls, replayCalls []call
	order := rng.Perm(len(serveScenarios))
	for b, at := range fixedRate(rng, nBurst, e.Seconds) {
		for j := range missBurst {
			i := b*missBurst + j
			req := missRequest(order, e.Seed, i)
			body, _ := json.Marshal(req)
			r.missReqs = append(r.missReqs, req)
			missCalls = append(missCalls, call{Due: at, Path: "/v1/campaigns", Body: body, Tag: i})
		}
	}
	catalog := serveCatalog()
	replayOrder := rng.Perm(len(catalog))
	for i, at := range randomTimes(rng, nReplay, e.Seconds) {
		k := replayOrder[i%len(catalog)]
		body, _ := json.Marshal(catalog[k])
		replayCalls = append(replayCalls, call{Due: at, Path: "/v1/stream", Body: body, Tag: -1 - k})
	}

	if r.before, err = scrapeMetrics(f.ts.URL); err != nil {
		return nil, err
	}
	m := f.srv.Metrics()
	evicted0, jobs0, accepted0 := m.SessionsEvicted.Load(), m.JobCount.Load(), m.JobsAccepted.Load()
	cpu0 := processCPU()
	ctx := context.Background()
	submits := make(chan reply, len(missCalls))
	followed := make(chan []reply)
	go func() { followed <- followMisses(ctx, f.ts.URL, submits) }()
	t0 := time.Now()
	replies := openLoop(ctx, f.ts.URL, t0, [][]call{mergeByDue(missCalls, replayCalls)}, func(rp reply) {
		if rp.Call.Tag >= 0 {
			submits <- rp
		}
	})
	close(submits)
	r.misses = <-followed
	end := t0
	for _, rp := range append(replies[0], r.misses...) {
		if rp.Done.After(end) {
			end = rp.Done
		}
		if rp.Call.Tag < 0 {
			r.replays = append(r.replays, rp)
		}
		r.lag = max(r.lag, ms(rp.lateness()))
	}
	elapsed := end.Sub(t0)
	cpu := processCPU() - cpu0
	// A job's duration is recorded just after its last line is
	// published; wait for every accepted job's before scraping.
	for deadline := time.Now().Add(2 * time.Second); m.JobCount.Load()-jobs0 < m.JobsAccepted.Load()-accepted0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	r.evicted = m.SessionsEvicted.Load() - evicted0
	if r.after, err = scrapeMetrics(f.ts.URL); err != nil {
		return nil, err
	}

	rows := 0
	judge := func(err error, n int) {
		out.Attempted++
		switch {
		case errors.Is(err, errRejected):
			out.Failed++
			r.rejected++
		case err != nil:
			out.Failed++
			out.failf("%v", err)
		default:
			rows += n
		}
	}
	for _, rp := range r.replays {
		err := judgeReplay(rp, f.catalog[-1-rp.Call.Tag])
		judge(err, catalogRuns)
		if err == nil {
			r.x.Replay = append(r.x.Replay, ms(rp.Done.Sub(rp.Due)))
		}
	}
	for _, rp := range r.misses {
		err := judgeMiss(rp, r.missReqs[rp.Call.Tag])
		judge(err, serveRuns)
		if err == nil {
			r.x.TTFR = append(r.x.TTFR, ms(rp.FirstLine.Sub(rp.Due)))
		}
	}
	// runs_per_s is the daemon's engine throughput under the mix: rows
	// its jobs produced per second of job run time, as /metrics reports
	// both. Rows per second of the window would only echo the offered
	// rate.
	d := func(k string) float64 { return r.after[k] - r.before[k] }
	r.x.RunsPerS = d("ancserve_rows_streamed_total") / d("ancserve_job_duration_seconds_sum")
	if r.evicted > 0 {
		// An evicted subscriber also sees a short stream, but count the
		// eviction itself in case the stream happened to end cleanly.
		out.Failed += int(r.evicted)
		out.failf("%d subscriber sessions evicted", r.evicted)
	}

	// Untimed: a sample of misses must be byte-identical to a local
	// Streamer's output for the same request.
	for _, i := range sampleIndices(r.missReqs) {
		req := r.missReqs[i]
		c, err := streamCampaign(nil, 0, streamOptionsFor(req, serveEngineWorkers), req.Scenario)
		if err != nil {
			return nil, fmt.Errorf("local stream of miss %d: %v", i, err)
		}
		r.sampled = append(r.sampled, c)
		var want bytes.Buffer
		for _, l := range c.Lines {
			want.Write(l)
			want.WriteByte('\n')
		}
		for _, rp := range r.misses {
			if rp.Call.Tag == i && rp.Err == nil && rp.Status == http.StatusOK && !bytes.Equal(rp.Body, want.Bytes()) {
				out.Failed++
				out.failf("miss %d (%s seed %d) differs from the local Streamer output", i, req.Scenario, req.Seed)
			}
		}
	}

	measured := map[string][2]float64{}
	for s, g := range f.gains {
		measured[s] = [2]float64{g[0].mean(), g[1].mean()}
	}
	r.x.GainErr = paperGainErr(e.Spec.Paper, measured)
	// The figures README.md sizes the mix by: the runner's busy share,
	// the share of the window the replays occupy their connection, the
	// process's CPU use, and the catalog's size against the LRU budget.
	busy := d("ancserve_job_duration_seconds_sum") / elapsed.Seconds()
	var replayBusy time.Duration
	for _, rp := range r.replays {
		replayBusy += rp.Done.Sub(rp.Sent)
	}
	catalogBytes := 0
	for _, c := range f.catalog {
		catalogBytes += len(c)
	}
	fmt.Fprintf(&out.Report, "# open loop: %d misses in bursts of %d, %d replays, %d rows served, over %.1f s; runner busy %.0f%%; replay connection busy %.1f%%; process CPU %.0f%% of %d processors; catalog %.0f KB; max generator lag %.1f ms\n",
		len(r.misses), missBurst, len(r.replays), rows, elapsed.Seconds(), 100*busy, 100*replayBusy.Seconds()/elapsed.Seconds(),
		100*cpu.Seconds()/elapsed.Seconds()/float64(e.Workers), e.Workers, float64(catalogBytes)/1e3, r.lag)
	return r, nil
}

// errRejected marks a request the daemon refused with 503.
var errRejected = errors.New("rejected with 503")

// judgeReply fails a transport error, a refusal or a non-200 answer.
func judgeReply(rp reply) error {
	switch {
	case rp.Err != nil:
		return fmt.Errorf("request error: %v", rp.Err)
	case rp.Status == http.StatusServiceUnavailable:
		return errRejected
	case rp.Status != http.StatusOK:
		return fmt.Errorf("status %d: %s", rp.Status, rp.Body)
	}
	return nil
}

// judgeReplay fails a replay that is not byte-identical to the copy
// fetched during set-up.
func judgeReplay(rp reply, want []byte) error {
	if err := judgeReply(rp); err != nil {
		return err
	}
	if !bytes.Equal(rp.Body, want) {
		return fmt.Errorf("replay differs from its set-up copy (%d bytes, want %d)", len(rp.Body), len(want))
	}
	return nil
}

// judgeMiss fails a fresh campaign whose rows are missing, out of order
// or mislabeled, or whose summary record does not match them.
func judgeMiss(rp reply, req serve.Request) error {
	if err := judgeReply(rp); err != nil {
		return err
	}
	if bad, why := checkStream(splitLines(rp.Body), req.Runs, req.Seed, "msk"); bad > 0 {
		return fmt.Errorf("miss %s seed %d: %v", req.Scenario, req.Seed, why)
	}
	if rp.FirstLine.IsZero() {
		return fmt.Errorf("miss %s seed %d: no first line", req.Scenario, req.Seed)
	}
	return nil
}

// sampleIndices picks the first miss of every scenario, then evenly
// spaced others, up to serveSample.
func sampleIndices(reqs []serve.Request) []int {
	var out []int
	seen := map[string]bool{}
	for i, r := range reqs {
		if !seen[r.Scenario] && len(out) < serveSample {
			seen[r.Scenario] = true
			out = append(out, i)
		}
	}
	for i := len(reqs) - 1; i >= 0 && len(out) < serveSample; i -= max(len(reqs)/serveSample, 1) {
		dup := false
		for _, j := range out {
			dup = dup || j == i
		}
		if !dup {
			out = append(out, i)
		}
	}
	return out
}

func mergeByDue(a, b []call) []call {
	out := make([]call, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && a[i].Due <= b[j].Due) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}
