package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/channel"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats/sketch"
)

// The two campaign workloads run a sequence of small campaigns through
// the CLI's seams for the measurement window. Each fresh campaign is a
// miss: its time to first output is a miss_ttfr sample and its rows
// count towards runs_per_s. The first refCycles cycles of every run walk
// the runs of the seed-1 campaign (`ancsim -runs 10`'s seeds), so
// gain_err_pct and the paper-summary reference check are the same on
// every run; later cycles draw fresh campaign seeds from the workload
// seed, and each of their campaigns is followed by a repeat of the first
// reference campaign of the same kind: the CLI path caches nothing, so a
// repeated campaign is recomputed — that is the campaign workloads'
// replay — and its output must equal the first one exactly. Replaying
// one fixed campaign per kind keeps the replays' mix the same however
// many cycles the window holds.
const (
	runsPerCampaign = 2 // rows per campaign call
	refCycles       = 5 // cycles forming the 10-run seed-1 reference campaign
	seedStride      = 7919
)

// cycleSeed is the campaign seed of cycle k for the slot-th kind of a
// cycle with the same scenario: for the reference cycles the seed-1
// campaign's runs 10·slot+2k and 10·slot+2k+1 (experiments derives run
// seeds as Seed + run·7919), then seeds derived from the workload seed.
func cycleSeed(wseed int64, k, slot int) int64 {
	if k < refCycles {
		return 1 + int64((slot*refCycles+k)*runsPerCampaign)*seedStride
	}
	return deriveSeed(wseed, uint64(k)<<8|uint64(slot))
}

// deriveSeed maps (seed, i) to a positive campaign seed.
func deriveSeed(seed int64, i uint64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + i
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>2) + 1
}

// endToEnd is the set of end-to-end figures every workload reports.
type endToEnd struct {
	RunsPerS float64
	GainErr  float64   // percent
	TTFR     []float64 // ms
	Replay   []float64 // ms
	// TTFRKind and ReplayKind give each sample's campaign kind on
	// paper-summary, whose p50s are then kindMedians. They are nil on
	// dense-trace, where two of a cycle's three kinds are chain-5 and so
	// the plain median lies inside chain-5's cluster, and on serve-mix,
	// whose medians are of hundreds of samples.
	TTFRKind   []int
	ReplayKind []int
	SetupS     float64
	PeakRSS    float64
}

func (x endToEnd) emit(out *outcome) {
	out.add("runs_per_s", "1/s", x.RunsPerS)
	out.add("gain_err_pct", "%", x.GainErr)
	t50 := kindMedian(x.TTFR, x.TTFRKind)
	tt, tn := tail(x.TTFR)
	out.add("miss_ttfr_p50_ms", "ms", t50)
	out.addNote("miss_ttfr_tail_ms", "ms", tt, tn)
	out.add("replay_p50_ms", "ms", kindMedian(x.Replay, x.ReplayKind))
	// The replay tail is printed but not a gated metric: on two
	// processors it is set by which replays a garbage-collection cycle
	// or the engine happens to delay, and it swings between runs by more
	// than any bound a regression check could use (serve-mix reports it
	// as serve.replay_ms_tail in the traced run).
	rt, rn := tail(x.Replay)
	fmt.Fprintf(&out.Report, "# replay tail (not gated): %.4g ms [%s]\n", rt, rn)
	out.add("setup_s", "s", x.SetupS)
	out.add("peak_rss_mb", "MB", x.PeakRSS)
}

// setupReps runs the workload's set-up procedure Sizes.SetupRepeats
// times and returns the median duration in seconds. The first repetition
// is timed from process start, so registry initialization is included
// once; once is told whether its set-up is the one the run keeps.
func setupReps(e env, once func(last bool) error) (float64, error) {
	var ds []float64
	reps := e.Sizes.SetupRepeats
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 {
			start = e.Start
		}
		if err := once(i == reps-1); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

// cycleLoop drives a campaign workload's window. Cycle k requests one
// fresh campaign of every kind; after the reference cycles, each fresh
// campaign is followed by a replay of the same kind, so replays mix the
// kinds as evenly as misses do. It stops after
// a whole cycle once the window has passed, the reference cycles are
// done and at least Sizes.Replays repeats were made. It returns the
// window's length and runs_per_s: rows per cycle over the sum of each
// kind's median campaign time, a rate robust to interference bursts on
// a shared host.
func cycleLoop(e env, kinds int, fresh func(k, kind int) (time.Duration, error), replay func(kind int) (time.Duration, error)) (time.Duration, float64, error) {
	durs := make([][]float64, kinds)
	t0 := time.Now()
	deadline := t0.Add(e.Seconds)
	replays := 0
	for k := 0; k < e.Sizes.RefCycles || replays < e.Sizes.Replays || time.Now().Before(deadline); k++ {
		for kind := 0; kind < kinds; kind++ {
			d, err := fresh(k, kind)
			if err != nil {
				return 0, 0, err
			}
			durs[kind] = append(durs[kind], d.Seconds())
			if k < e.Sizes.RefCycles {
				continue
			}
			if d, err = replay(kind); err != nil {
				return 0, 0, err
			}
			durs[kind] = append(durs[kind], d.Seconds())
			replays++
		}
	}
	cycle := 0.0
	for _, d := range durs {
		cycle += median(d)
	}
	return time.Since(t0), float64(kinds*runsPerCampaign) / cycle, nil
}

// paperGainErr is the mean relative deviation, in percent, of measured
// mean gains from the paper's (§11.3), over every pairing present in
// both. measured maps a paper topology to its routing and COPE gains
// (COPE NaN when absent).
func paperGainErr(paper map[string]paperGains, measured map[string][2]float64) float64 {
	sum, n := 0.0, 0
	for topo, m := range measured {
		p, ok := paper[topo]
		if !ok {
			continue
		}
		sum += math.Abs(m[0]-p.Routing) / p.Routing
		n++
		if p.COPE != nil && !math.IsNaN(m[1]) {
			sum += math.Abs(m[1]-*p.COPE) / *p.COPE
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * sum / float64(n)
}

// ---- paper-summary ------------------------------------------------------

type paperFigure struct {
	Topology string
	Call     string
	Fn       func(experiments.Options) *experiments.GainResult
}

var paperFigures = []paperFigure{
	{"alice-bob", "experiments.fig9", experiments.Fig9},
	{"x", "experiments.fig10", experiments.Fig10},
	{"chain", "experiments.fig12", experiments.Fig12},
}

func paperOptions(seed int64, workers, packets int) experiments.Options {
	cfg := sim.DefaultConfig()
	if packets > 0 {
		cfg.Packets = packets
	}
	return experiments.Options{Runs: runsPerCampaign, Sim: cfg, Seed: seed, Workers: workers}
}

// poolMean accumulates an exact-sample mean across GainResults.
type poolMean struct{ sum, n float64 }

func (p *poolMean) add(mean float64, n int) {
	if n > 0 {
		p.sum += mean * float64(n)
		p.n += float64(n)
	}
}

func (p poolMean) mean() float64 {
	if p.n == 0 {
		return math.NaN()
	}
	return p.sum / p.n
}

type paperPool struct{ routing, cope, ber, overlap poolMean }

func (p *paperPool) add(g *experiments.GainResult) {
	p.routing.add(g.GainOverTrad.Mean(), g.GainOverTrad.Len())
	if g.GainOverCOPE != nil {
		p.cope.add(g.GainOverCOPE.Mean(), g.GainOverCOPE.Len())
	}
	p.ber.add(g.BER.Mean(), g.BER.Len())
	p.overlap.add(g.Overlap.Mean(), g.Overlap.Len())
}

// checkGainResult verifies one figure campaign came back complete.
func checkGainResult(g *experiments.GainResult, topo string, runs int) error {
	switch {
	case g == nil:
		return fmt.Errorf("%s: nil result", topo)
	case g.Topology != topo || g.Modem != "msk":
		return fmt.Errorf("%s: result is %s/%s", topo, g.Topology, g.Modem)
	case g.GainOverTrad == nil || g.GainOverTrad.Len() != runs:
		return fmt.Errorf("%s: gain pool incomplete", topo)
	case (topo == "chain") != (g.GainOverCOPE == nil):
		return fmt.Errorf("%s: COPE pool presence wrong", topo)
	case g.GainOverCOPE != nil && g.GainOverCOPE.Len() != runs:
		return fmt.Errorf("%s: COPE pool incomplete", topo)
	case g.BER == nil || g.Overlap == nil || g.BER.Len() == 0:
		return fmt.Errorf("%s: BER/overlap pools missing", topo)
	}
	for _, s := range g.Throughput {
		if s.Len() != runs {
			return fmt.Errorf("%s: throughput pool has %d of %d runs", topo, s.Len(), runs)
		}
	}
	if m := g.GainOverTrad.Mean(); !(m > 0) || math.IsInf(m, 0) {
		return fmt.Errorf("%s: gain %v", topo, m)
	}
	if b := g.BER.Mean(); !(b >= 0 && b <= 1) {
		return fmt.Errorf("%s: BER %v", topo, b)
	}
	return nil
}

// checkReference compares the reference campaign's pooled means with the
// values recorded in spec.json.
func checkReference(ref paperSummaryReference, pools map[string]*paperPool) []string {
	var bad []string
	near := func(what string, got, want float64) {
		if math.Abs(got-want) > ref.Tolerance*math.Abs(want) {
			bad = append(bad, fmt.Sprintf("%s = %.6g, reference %.6g", what, got, want))
		}
	}
	for _, f := range paperFigures {
		want, ok := ref.Values[f.Topology]
		p := pools[f.Topology]
		if !ok {
			bad = append(bad, f.Topology+": no reference value")
			continue
		}
		near(f.Topology+" gain over routing", p.routing.mean(), want.GainRouting)
		if want.GainCOPE != nil {
			near(f.Topology+" gain over COPE", p.cope.mean(), *want.GainCOPE)
		}
		near(f.Topology+" mean BER", p.ber.mean(), want.BER)
		near(f.Topology+" mean overlap", p.overlap.mean(), want.Overlap)
	}
	return bad
}

func runPaperSummary(e env) (*outcome, error) {
	out := &outcome{}
	x, err := paperSummary(e, nil, out)
	if err != nil {
		return nil, err
	}
	x.PeakRSS = peakRSSMB()
	x.emit(out)
	return out, nil
}

func paperSummary(e env, tr *tracer, out *outcome) (*endToEnd, error) {
	setup, err := setupReps(e, func(bool) error {
		// Resolve the figure campaigns and warm the engine, decoder
		// workspaces and heap with one small untimed pass.
		for i, f := range paperFigures {
			g := f.Fn(paperOptions(deriveSeed(e.Seed, 1<<40+uint64(i)), e.Workers, 4))
			if err := checkGainResult(g, f.Topology, runsPerCampaign); err != nil {
				return fmt.Errorf("warm-up: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	x := &endToEnd{SetupS: setup}
	pools := map[string]*paperPool{}
	for _, f := range paperFigures {
		pools[f.Topology] = &paperPool{}
	}
	type reference struct {
		opts experiments.Options
		text string
	}
	refs := make([]*reference, len(paperFigures)) // each kind's first reference campaign
	op := 0
	call := func(f paperFigure, opts experiments.Options) (*experiments.GainResult, string, time.Duration) {
		op++
		sp := tr.begin(f.Call, 0, op)
		start := time.Now()
		g := f.Fn(opts)
		d := time.Since(start)
		tr.end(sp)
		tr.count("experiments.rows", runsPerCampaign)
		out.Attempted += runsPerCampaign
		if err := checkGainResult(g, f.Topology, runsPerCampaign); err != nil {
			out.Failed += runsPerCampaign
			out.failf("campaign %d: %v", op, err)
			return nil, "", d
		}
		return g, renderGain(tr, op, g), d
	}
	fresh := func(k, kind int) (time.Duration, error) {
		f := paperFigures[kind]
		opts := paperOptions(cycleSeed(e.Seed, k, 0), e.Workers, 0)
		g, text, d := call(f, opts)
		x.TTFR = append(x.TTFR, ms(d))
		x.TTFRKind = append(x.TTFRKind, kind)
		if g != nil && k < e.Sizes.RefCycles {
			pools[f.Topology].add(g)
		}
		if g != nil && k == 0 {
			refs[kind] = &reference{opts, text}
		}
		return d, nil
	}
	replay := func(kind int) (time.Duration, error) {
		ref := refs[kind]
		if ref == nil {
			return 0, fmt.Errorf("no reference %s campaign to repeat", paperFigures[kind].Topology)
		}
		f := paperFigures[kind]
		g, text, d := call(f, ref.opts)
		x.Replay = append(x.Replay, ms(d))
		x.ReplayKind = append(x.ReplayKind, kind)
		if g != nil && text != ref.text {
			out.Failed += runsPerCampaign
			out.failf("repeated %s campaign (seed %d) differs from its first run", f.Topology, ref.opts.Seed)
		}
		return d, nil
	}
	elapsed, rate, err := cycleLoop(e, len(paperFigures), fresh, replay)
	if err != nil {
		return nil, err
	}
	x.RunsPerS = rate
	fmt.Fprintf(&out.Report, "# window %.1f s, %d rows: %.3f rows/s over the whole window\n", elapsed.Seconds(), out.Attempted, float64(out.Attempted)/elapsed.Seconds())

	// The reference campaign: every one of its rows fails if a pooled
	// value leaves the recorded reference.
	// Its values are recorded for the full reference campaign only.
	if bad := checkReference(e.Spec.Reference, pools); e.Sizes.RefCycles == refCycles && len(bad) > 0 {
		out.Failed += refCycles * runsPerCampaign * len(paperFigures)
		for _, b := range bad {
			out.failf("reference campaign: %s", b)
		}
	}
	measured := map[string][2]float64{}
	for topo, p := range pools {
		measured[topo] = [2]float64{p.routing.mean(), p.cope.mean()}
	}
	x.GainErr = paperGainErr(e.Spec.Paper, measured)
	fmt.Fprintf(&out.Report, "# reference campaign (%s):\n", e.Spec.Reference.Campaign)
	for _, f := range paperFigures {
		p := pools[f.Topology]
		fmt.Fprintf(&out.Report, "#   %-10s gain/routing %.8g  gain/COPE %.8g  BER %.8g  overlap %.8g\n",
			f.Topology, p.routing.mean(), p.cope.mean(), p.ber.mean(), p.overlap.mean())
	}
	return x, nil
}

// renderGain is a campaign's text output (the `ancsim -exp fig9`
// tables) plus its pool means at full precision, for the identity check
// of repeated campaigns.
func renderGain(tr *tracer, op int, g *experiments.GainResult) string {
	sp := tr.begin("experiments.format", 0, op)
	text := g.FormatGain(cliMaxRows) + g.FormatBER(cliMaxRows)
	tr.end(sp)
	cope := math.NaN()
	if g.GainOverCOPE != nil {
		cope = g.GainOverCOPE.Mean()
	}
	return text + fmt.Sprint(g.GainOverTrad.Mean(), cope, g.BER.Mean(), g.Overlap.Mean())
}

// cliMaxRows is ancsim's default -rows.
const cliMaxRows = 25

// ---- dense-trace --------------------------------------------------------

// denseScenarios are the kinds of a dense-trace cycle. chain-5 runs
// twice, with different seeds, so that each latency's median falls
// inside one scenario's cluster instead of in the gap between the two.
var denseScenarios = []string{"pairs4", "chain-5", "chain-5"}

// denseSlot is how many earlier kinds of a cycle share kind's scenario.
func denseSlot(kind int) int {
	n := 0
	for _, s := range denseScenarios[:kind] {
		if s == denseScenarios[kind] {
			n++
		}
	}
	return n
}

// denseOptions is `ancsim -scenario <s> -modem dqpsk -fading rician
// -trace -format ndjson -runs 2 -seed <seed>`.
func denseOptions(seed int64, workers, packets int) experiments.StreamOptions {
	var cfg sim.Config
	cfg.SNRdB = sim.Ptr(25)
	cfg.Modem = "dqpsk"
	cfg.Topology.Fading = channel.FadingSpec{Kind: channel.FadingRician}
	cfg.Packets = packets
	return experiments.StreamOptions{
		Options: experiments.Options{Runs: runsPerCampaign, Sim: cfg, Seed: seed, Workers: workers},
		Trace:   true,
	}
}

// streamedCampaign is one campaign's NDJSON output with its timings.
type streamedCampaign struct {
	Scenario  string
	Seed      int64
	Rows      int
	Lines     [][]byte
	NewDur    time.Duration // NewStreamer
	FirstRow  time.Duration // Stream call → first emit
	Summary   time.Duration // last row → summary record
	Gaps      []float64     // emit → emit between rows, µs
	TTFR      time.Duration // NewStreamer call → first emit
	Total     time.Duration // NewStreamer call → summary record
	RowsBytes int
}

// streamCampaign resolves and streams one campaign, timing each seam.
func streamCampaign(tr *tracer, op int, opts experiments.StreamOptions, scenario string) (*streamedCampaign, error) {
	c := &streamedCampaign{Scenario: scenario, Seed: opts.Seed}
	root := tr.begin("experiments.campaign", 0, op)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("experiments.new_streamer", root, op)
	st, err := experiments.NewStreamer(opts, scenario, 1, 1)
	tr.end(sp)
	c.NewDur = time.Since(t0)
	if err != nil {
		return nil, err
	}
	c.Rows = st.Rows()
	sp = tr.begin("experiments.stream", root, op)
	start := time.Now()
	last := start
	err = st.Stream(context.Background(), func(line []byte) error {
		now := time.Now()
		n := len(c.Lines)
		switch {
		case n == 0:
			c.FirstRow = now.Sub(start)
			c.TTFR = now.Sub(t0)
		case n < c.Rows:
			c.Gaps = append(c.Gaps, float64(now.Sub(last))/float64(time.Microsecond))
		}
		if n < c.Rows {
			c.RowsBytes += len(line)
		} else {
			c.Summary = now.Sub(last)
			c.Total = now.Sub(t0)
		}
		last = now
		c.Lines = append(c.Lines, line)
		return nil
	})
	tr.end(sp)
	tr.count("experiments.rows", int64(c.Rows))
	tr.count("experiments.row_bytes", int64(c.RowsBytes))
	return c, err
}

// wireSummary is the trailing NDJSON summary record, as a client reads it.
type wireSummary struct {
	Record string `json:"record"`
	Header struct {
		Scenario string `json:"scenario"`
		Modem    string `json:"modem"`
		Runs     int    `json:"runs"`
		Seed     int64  `json:"seed"`
	} `json:"header"`
	Sketches map[string]string `json:"sketches"`
}

// checkStream verifies a campaign's NDJSON lines: every row present, in
// order, with the seed experiments derives for it, and a trailing
// summary whose sketches decode cleanly and count exactly the rows'
// observations. It returns how many rows failed and why.
func checkStream(lines [][]byte, rows int, seed int64, modem string) (int, []string) {
	var why []string
	if len(lines) != rows+1 {
		return rows, []string{fmt.Sprintf("%d lines, want %d rows + summary", len(lines), rows)}
	}
	failed := 0
	gains, bers, overlaps := 0, 0, 0
	for i, line := range lines[:rows] {
		var row experiments.CampaignRow
		if err := json.Unmarshal(line, &row); err != nil {
			failed++
			why = append(why, fmt.Sprintf("row %d: %v", i, err))
			continue
		}
		if row.Run != i || row.Seed != seed+int64(i)*seedStride || row.Modem != modem || len(row.Schemes) == 0 {
			failed++
			why = append(why, fmt.Sprintf("row %d out of order or mislabeled (run %d seed %d modem %s)", i, row.Run, row.Seed, row.Modem))
			continue
		}
		if row.GainOverRouting != nil {
			gains++
		}
		for _, s := range row.Schemes {
			if s.Scheme == string(sim.SchemeANC) {
				bers += len(s.BERs)
				overlaps += len(s.Overlaps)
			}
		}
	}
	var sum wireSummary
	if err := json.Unmarshal(lines[rows], &sum); err != nil || sum.Record != "summary" {
		return rows, append(why, fmt.Sprintf("summary record unreadable: %v", err))
	}
	want := map[string]int{"gain_over_routing": gains, "ber": bers, "overlap": overlaps}
	for name, n := range want {
		sk, err := decodeSketch(sum.Sketches[name])
		if err != nil {
			return rows, append(why, fmt.Sprintf("summary sketch %s: %v", name, err))
		}
		if sk.Len() != n {
			return rows, append(why, fmt.Sprintf("summary sketch %s counts %d, rows hold %d", name, sk.Len(), n))
		}
	}
	return failed, why
}

func decodeSketch(b64 string) (*sketch.Sketch, error) {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, err
	}
	return sketch.Decode(raw)
}

type denseRun struct {
	x         endToEnd
	campaigns []*streamedCampaign
	refGains  map[string][2]poolMean
}

func runDenseTrace(e env) (*outcome, error) {
	out := &outcome{}
	r, err := denseTrace(e, nil, out)
	if err != nil {
		return nil, err
	}
	r.x.PeakRSS = peakRSSMB()
	r.x.emit(out)
	return out, nil
}

// densePaperTopology names the paper campaign each dense-trace scenario
// is measured against: pairs4 is four Alice–Bob cells, chain-5 a longer
// chain.
var densePaperTopology = map[string]string{"pairs4": "alice-bob", "chain-5": "chain"}

func denseTrace(e env, tr *tracer, out *outcome) (*denseRun, error) {
	setup, err := setupReps(e, func(bool) error {
		for i, s := range denseScenarios {
			if denseSlot(i) > 0 {
				continue // one warm-up per scenario
			}
			c, err := streamCampaign(nil, 0, denseOptions(deriveSeed(e.Seed, 1<<40+uint64(i)), e.Workers, 4), s)
			if err != nil {
				return fmt.Errorf("warm-up: %v", err)
			}
			if bad, why := checkStream(c.Lines, c.Rows, c.Seed, "dqpsk"); bad > 0 {
				return fmt.Errorf("warm-up: %v", why)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &denseRun{x: endToEnd{SetupS: setup}, refGains: map[string][2]poolMean{}}
	refs := make([]*streamedCampaign, len(denseScenarios)) // each kind's first reference campaign
	op := 0
	call := func(scenario string, seed int64) (*streamedCampaign, error) {
		op++
		c, err := streamCampaign(tr, op, denseOptions(seed, e.Workers, 0), scenario)
		if err != nil {
			return nil, fmt.Errorf("%s campaign: %v", scenario, err)
		}
		out.Attempted += c.Rows
		bad, why := checkStream(c.Lines, c.Rows, c.Seed, "dqpsk")
		out.Failed += bad
		for _, w := range why {
			out.failf("%s seed %d: %s", scenario, c.Seed, w)
		}
		return c, nil
	}
	fresh := func(k, kind int) (time.Duration, error) {
		s := denseScenarios[kind]
		c, err := call(s, cycleSeed(e.Seed, k, denseSlot(kind)))
		if err != nil {
			return 0, err
		}
		r.x.TTFR = append(r.x.TTFR, ms(c.TTFR))
		r.campaigns = append(r.campaigns, c)
		if k == 0 {
			refs[kind] = c
		}
		if k < e.Sizes.RefCycles {
			g := r.refGains[s]
			for _, line := range c.Lines[:min(c.Rows, len(c.Lines))] {
				var row experiments.CampaignRow
				if json.Unmarshal(line, &row) != nil {
					continue // counted by checkStream
				}
				if row.GainOverRouting != nil {
					g[0].add(*row.GainOverRouting, 1)
				}
				if row.GainOverCOPE != nil {
					g[1].add(*row.GainOverCOPE, 1)
				}
			}
			r.refGains[s] = g
		}
		return c.Total, nil
	}
	replay := func(kind int) (time.Duration, error) {
		ref := refs[kind]
		c, err := call(ref.Scenario, ref.Seed)
		if err != nil {
			return 0, err
		}
		r.x.Replay = append(r.x.Replay, ms(c.Total))
		if !equalLines(c.Lines, ref.Lines) {
			out.Failed += c.Rows
			out.failf("repeated %s campaign (seed %d) differs from its first run", ref.Scenario, ref.Seed)
		}
		return c.Total, nil
	}
	elapsed, rate, err := cycleLoop(e, len(denseScenarios), fresh, replay)
	if err != nil {
		return nil, err
	}
	r.x.RunsPerS = rate
	fmt.Fprintf(&out.Report, "# window %.1f s, %d rows: %.3f rows/s over the whole window\n", elapsed.Seconds(), out.Attempted, float64(out.Attempted)/elapsed.Seconds())
	measured := map[string][2]float64{}
	for s, g := range r.refGains {
		measured[densePaperTopology[s]] = [2]float64{g[0].mean(), g[1].mean()}
	}
	r.x.GainErr = paperGainErr(e.Spec.Paper, measured)
	return r, nil
}

func equalLines(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
