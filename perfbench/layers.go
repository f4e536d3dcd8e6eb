package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats/sketch"
	"repro/internal/topology"
)

// perLayer is the per-layer metric catalog every traced run prints, in
// order. A layer a workload does not exercise reports 0 and is marked
// "absent" in the human-readable output.
var perLayer = []struct{ Name, Unit string }{
	{"serve.headers_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_tail", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.job_run_ms_mean", "ms"},
	{"serve.replay_mb_per_s", "MB/s"},
	{"serve.replay_ms_tail", "ms"},
	{"serve.rejected", "count"},
	{"serve.evicted", "count"},
	{"serve.generator_lag_ms_max", "ms"},
	{"experiments.new_streamer_ms", "ms"},
	{"experiments.first_row_ms", "ms"},
	{"experiments.row_gap_us_p50", "us"},
	{"experiments.summary_ms", "ms"},
	{"experiments.bytes_per_row", "bytes"},
	{"experiments.format_ms", "ms"},
	{"sim.run_ms_p50.anc", "ms"},
	{"sim.run_ms_p50.routing", "ms"},
	{"sim.run_ms_p50.cope", "ms"},
	{"sim.parallel_efficiency", "ratio"},
	{"sim.allocs_per_run", "count"},
	{"sim.alloc_kb_per_run", "KB"},
	{"sim.delivered_share", "ratio"},
	{"frame.marshal_us", "us"},
	{"phy.modulate_ns_per_sample", "ns"},
	{"phy.demod_ns_per_sample", "ns"},
	{"channel.receive_ns_per_sample", "ns"},
	{"channel.link_at_ns", "ns"},
	{"core.decode_us_per_reception", "us"},
	{"core.detect_ns_per_sample", "ns"},
	{"core.decode_ok_share", "ratio"},
	{"core.fail.no_packet", "count"},
	{"core.fail.no_pilot", "count"},
	{"core.fail.unknown", "count"},
	{"core.fail.no_alignment", "count"},
	{"core.fail.short_overlap", "count"},
	{"core.fail.amplitude", "count"},
	{"stats.sketch_add_ns", "ns"},
	{"stats.sketch_encode_us", "us"},
	{"cpu.core_share", "ratio"},
	{"cpu.dsp_share", "ratio"},
	{"cpu.channel_share", "ratio"},
	{"cpu.msk_share", "ratio"},
	{"cpu.dqpsk_share", "ratio"},
	{"cpu.sim_share", "ratio"},
	{"cpu.experiments_share", "ratio"},
	{"cpu.serve_share", "ratio"},
	{"cpu.stats_share", "ratio"},
	{"cpu.math_share", "ratio"},
	{"cpu.runtime_share", "ratio"},
	{"cpu.encoding_json_share", "ratio"},
	{"cpu.net_http_share", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.accounted_share", "ratio"},
}

// layerProbe names the engine scenario and configuration the traced run
// measures the sim layer and the reception ladder under.
type layerProbe struct {
	Scenario string
	Cells    int // Alice–Bob cells per scenario step (pairs4: 4)
	Burst    int // ladder cells decoded per DecodeBatch burst
	Sim      sim.Config
	Trace    bool // campaign link traces on
}

// tracedRun wraps a workload body with the CPU profile, the sim-layer
// passes, the reception ladder and the sketch probe, then prints the
// per-layer metrics and the attribution table.
func tracedRun(e env, name string, probe layerProbe, body func(tr *tracer, out *outcome, vals map[string]float64) error) (*outcome, error) {
	out := &outcome{}
	profPath := filepath.Join(e.OutDir, fmt.Sprintf("cpu-%s-%d.pprof", name, e.Seed))
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	tr := newTracer()
	start := time.Now()
	vals := map[string]float64{}
	err = body(tr, out, vals)
	var obs []float64
	var ladderMs float64
	if err == nil {
		obs, err = simLayer(tr, e, probe, vals)
	}
	if err == nil {
		ladderMs, err = ladder(tr, e, probe, vals)
	}
	if err == nil {
		sketchLayer(obs, vals)
	}
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	for g, v := range shares {
		vals["cpu."+g+"_share"] = v
	}
	vals["trace.overhead_pct"] = 100 * float64(tr.records()) * float64(spanCost()) / float64(wall)
	perExchange := vals["sim.run_ms_p50.anc"] / float64(packetsOf(probe.Sim)*probe.Cells)
	vals["trace.accounted_share"] = ladderMs / perExchange
	spansPath := filepath.Join(e.OutDir, fmt.Sprintf("spans-%s-%d.jsonl", name, e.Seed))
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	attributionTable(&out.Report, tr, probe, perExchange, vals)
	fmt.Fprintf(&out.Report, "# spans: %s  cpu profile: %s\n", spansPath, profPath)
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if ok {
			out.add(m.Name, m.Unit, v)
		} else {
			out.addNote(m.Name, m.Unit, 0, "absent on this workload")
		}
	}
	return out, nil
}

func packetsOf(cfg sim.Config) int { return cfg.WithDefaults().Packets }

// simLayer runs one Engine.CampaignStream pass per scheme at one worker,
// timing each run between Sink.Consume calls, then all schemes at the
// full worker count for the parallel efficiency. It returns the ANC BER
// observations for the sketch probe.
func simLayer(tr *tracer, e env, probe layerProbe, vals map[string]float64) ([]float64, error) {
	sc, ok := sim.LookupScenario(probe.Scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", probe.Scenario)
	}
	runs := e.Sizes.SimRuns
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = deriveSeed(e.Seed, 2<<40+uint64(i))
	}
	eng := sim.NewEngine(probe.Sim)
	schemes := sc.Schemes()
	var seq time.Duration
	var allocs, bytes uint64
	var obs []float64
	delivered, lost := 0, 0
	for i, s := range schemes {
		opts := []sim.StreamOption{sim.WithWorkers(1)}
		if probe.Trace {
			opts = append(opts, sim.WithLinkTraces())
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op := 1_000_000 + i
		root := tr.begin("sim.campaign_stream", 0, op)
		start := time.Now()
		last := start
		var runMs []float64
		err := eng.CampaignStream(sc, []sim.Scheme{s}, seeds, sim.SinkFunc(func(row sim.Row) error {
			now := time.Now()
			tr.record("sim.run."+string(s), root, op, last, now)
			runMs = append(runMs, ms(now.Sub(last)))
			last = now
			if s == sim.SchemeANC {
				m := row.Metrics[0]
				delivered += m.Delivered
				lost += m.Lost
				obs = append(obs, m.BERs...)
			}
			return nil
		}), opts...)
		seq += time.Since(start)
		tr.end(root)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		vals["sim.run_ms_p50."+string(s)] = median(runMs)
	}
	n := float64(runs * len(schemes))
	vals["sim.allocs_per_run"] = float64(allocs) / n
	vals["sim.alloc_kb_per_run"] = float64(bytes) / 1024 / n
	if delivered+lost > 0 {
		vals["sim.delivered_share"] = float64(delivered) / float64(delivered+lost)
	}
	opts := []sim.StreamOption{sim.WithWorkers(e.Workers)}
	if probe.Trace {
		opts = append(opts, sim.WithLinkTraces())
	}
	start := time.Now()
	if err := eng.CampaignStream(sc, schemes, seeds, sim.SinkFunc(func(sim.Row) error { return nil }), opts...); err != nil {
		return nil, err
	}
	vals["sim.parallel_efficiency"] = seq.Seconds() / (float64(e.Workers) * time.Since(start).Seconds())
	return obs, nil
}

// ladderCell is one Alice–Bob relay cell of the reception ladder.
type ladderCell struct {
	g          *topology.Graph
	alice, bob *radio.Node
	routerBuf  dsp.Signal
	bufA, bufB dsp.Signal
}

// coreFailures maps each exported decode failure to its counter.
var coreFailures = []struct {
	Err  error
	Name string
}{
	{core.ErrNoPacket, "core.fail.no_packet"},
	{core.ErrNoPilot, "core.fail.no_pilot"},
	{core.ErrUnknown, "core.fail.unknown"},
	{core.ErrNoAlignment, "core.fail.no_alignment"},
	{core.ErrShortOverlap, "core.fail.short_overlap"},
	{core.ErrAmplitude, "core.fail.amplitude"},
}

// ladder replays Fig. 1 ANC exchanges through the public calls one run
// makes per packet — frame marshal, modulation, channel synthesis at the
// relay, amplify-and-forward, the two downlink receptions, and one
// core.DecodeBatch over the burst — under the probe's modem, SNR, delay
// draw and channel model, with a span around each call. It returns the
// mean wall time of one exchange in ms.
func ladder(tr *tracer, e env, probe layerProbe, vals map[string]float64) (float64, error) {
	cfg := probe.Sim.WithDefaults()
	name := cfg.Modem
	if name == "" {
		name = phy.Default
	}
	modem, err := phy.New(name, cfg.SamplesPerSymbol)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(deriveSeed(e.Seed, 3<<40)))
	floor := cfg.Topology.MeanPowerGain / dsp.FromDB(*cfg.SNRdB)
	frameBits := frame.FrameBits(cfg.PayloadBytes)
	fixedFrame := func(c *core.Config) { c.FallbackFrameBits = frameBits }
	ws := core.NewWorkspace()
	cells := make([]*ladderCell, probe.Burst)
	for i := range cells {
		c := &ladderCell{
			g:     topology.AliceBob(cfg.Topology, rng),
			alice: radio.NewNode(topology.Alice+1, modem, floor, fixedFrame),
			bob:   radio.NewNode(topology.Bob+1, modem, floor, fixedFrame),
		}
		c.alice.SetWorkspace(ws)
		c.bob.SetWorkspace(ws)
		cells[i] = c
	}
	link := func(c *ladderCell, from, to, slot int) channel.Link {
		m, _ := c.g.Model(from, to)
		return m.LinkAt(slot)
	}
	noise := dsp.NewNoiseSource(floor, rng.Int63())
	tailPad := 4 * (4 * cfg.SamplesPerSymbol * 8)
	var items []core.BatchItem
	var results []core.BatchResult
	var modulated, received, receptions, ok int
	var lastRx []dsp.Signal
	var lastSent dsp.Signal
	exchanges := 0
	for slot := 0; exchanges < e.Sizes.LadderExchanges; slot++ {
		op := 2_000_000 + slot
		root := tr.begin("ladder.exchange", 0, op)
		items = items[:0]
		for _, c := range cells {
			pa := make([]byte, cfg.PayloadBytes)
			pb := make([]byte, cfg.PayloadBytes)
			rng.Read(pa)
			rng.Read(pb)
			pktA := frame.NewPacket(c.alice.ID, c.bob.ID, c.alice.NextSeq(), pa)
			pktB := frame.NewPacket(c.bob.ID, c.alice.ID, c.bob.NextSeq(), pb)
			mac.MarkTrigger(&pktA.Header)
			sp := tr.begin("frame.marshal", root, op)
			bitsA := frame.MarshalFor(pktA, modem.BitsPerSymbol())
			bitsB := frame.MarshalFor(pktB, modem.BitsPerSymbol())
			tr.end(sp)
			sp = tr.begin("phy.modulate", root, op)
			sA := modem.Modulate(bitsA)
			sB := modem.Modulate(bitsB)
			tr.end(sp)
			modulated += len(sA) + len(sB)
			// Together with the two calls above, this is Node.BuildFrame.
			c.alice.Remember(frame.SentRecord{Packet: pktA, Bits: bitsA, Samples: sA})
			c.bob.Remember(frame.SentRecord{Packet: pktB, Bits: bitsB, Samples: sB})

			delta := cfg.Delay.Draw(rng)
			dA, dB := 0, delta
			if rng.Intn(2) == 1 {
				dA, dB = delta, 0
			}
			sp = tr.begin("channel.receive", root, op)
			noise.Reseed(rng.Int63())
			c.routerBuf = channel.ReceiveInto(c.routerBuf, noise, tailPad,
				channel.Transmission{Signal: sA, Link: link(c, topology.Alice, topology.Router, slot), Delay: dA},
				channel.Transmission{Signal: sB, Link: link(c, topology.Bob, topology.Router, slot), Delay: dB})
			tr.end(sp)
			sp = tr.begin("channel.amplify", root, op)
			relayed := channel.AmplifyToInPlace(c.routerBuf, 1)
			tr.end(sp)
			sp = tr.begin("channel.receive", root, op)
			noise.Reseed(rng.Int63())
			c.bufA = channel.ReceiveInto(c.bufA, noise, tailPad, channel.Transmission{Signal: relayed, Link: link(c, topology.Router, topology.Alice, slot)})
			noise.Reseed(rng.Int63())
			c.bufB = channel.ReceiveInto(c.bufB, noise, tailPad, channel.Transmission{Signal: relayed, Link: link(c, topology.Router, topology.Bob, slot)})
			tr.end(sp)
			received += len(relayed) + len(c.bufA) + len(c.bufB)
			items = append(items, c.alice.BatchItem(c.bufA), c.bob.BatchItem(c.bufB))
			lastSent = sA
		}
		sp := tr.begin("core.decode", root, op)
		results = core.DecodeBatch(items, results)
		tr.end(sp)
		tr.end(root)
		for _, r := range results {
			receptions++
			if r.Err == nil {
				ok++
				continue
			}
			for _, f := range coreFailures {
				if errors.Is(r.Err, f.Err) {
					tr.count(f.Name, 1)
				}
			}
		}
		lastRx = []dsp.Signal{cells[0].bufA, cells[0].bufB}
		exchanges += len(cells)
	}
	vals["frame.marshal_us"] = tr.total("frame.marshal") / float64(2*exchanges) / 1e3
	vals["phy.modulate_ns_per_sample"] = tr.total("phy.modulate") / float64(modulated)
	vals["channel.receive_ns_per_sample"] = tr.total("channel.receive") / float64(received)
	vals["core.decode_us_per_reception"] = tr.total("core.decode") / float64(receptions) / 1e3
	vals["core.decode_ok_share"] = float64(ok) / float64(receptions)
	for _, f := range coreFailures {
		vals[f.Name] = float64(tr.counter(f.Name))
	}

	// Per-call probes too short for a span each: timed over a loop.
	const reps = 20
	det := core.DefaultConfig(modem, floor).Detector
	probeWs := core.NewWorkspace()
	samples := 0
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, rx := range lastRx {
			core.DetectWith(probeWs, rx, floor, det)
			samples += len(rx)
		}
	}
	vals["core.detect_ns_per_sample"] = float64(time.Since(start)) / float64(samples)
	clean := channel.ReceiveInto(nil, noise, 0, channel.Transmission{Signal: lastSent, Link: link(cells[0], topology.Alice, topology.Router, 0)})
	var scratch dsp.Scratch
	var bits []byte
	start = time.Now()
	for i := 0; i < reps; i++ {
		bits = modem.DemodulateInto(&scratch, bits, clean)
	}
	vals["phy.demod_ns_per_sample"] = float64(time.Since(start)) / float64(reps*len(clean))
	m, _ := cells[0].g.Model(topology.Alice, topology.Router)
	const linkReps = 100000
	start = time.Now()
	var sink float64
	for i := 0; i < linkReps; i++ {
		sink += m.LinkAt(i).Gain
	}
	vals["channel.link_at_ns"] = float64(time.Since(start)) / linkReps
	_ = sink
	return tr.total("ladder.exchange") / float64(exchanges) / 1e6, nil
}

// sketchLayer times sketch.Add over the run's observations and the
// canonical encoding of the filled sketch.
func sketchLayer(obs []float64, vals map[string]float64) {
	if len(obs) == 0 {
		obs = []float64{0.01}
	}
	const adds = 200000
	sk := sketch.NewDefault()
	start := time.Now()
	for i := 0; i < adds; i++ {
		sk.Add(obs[i%len(obs)] + 1e-9*float64(i%1000))
	}
	vals["stats.sketch_add_ns"] = float64(time.Since(start)) / adds
	const encodes = 200
	start = time.Now()
	for i := 0; i < encodes; i++ {
		sk.Encode()
	}
	vals["stats.sketch_encode_us"] = float64(time.Since(start)) / encodes / 1e3
}

// streamerLayer fills the experiments.* metrics from streamed campaigns.
func streamerLayer(cs []*streamedCampaign, vals map[string]float64) {
	if len(cs) == 0 {
		return
	}
	var newMs, first, summary, gaps []float64
	rows, bytes := 0, 0
	for _, c := range cs {
		newMs = append(newMs, ms(c.NewDur))
		first = append(first, ms(c.FirstRow))
		summary = append(summary, ms(c.Summary))
		gaps = append(gaps, c.Gaps...)
		rows += c.Rows
		bytes += c.RowsBytes
	}
	vals["experiments.new_streamer_ms"] = median(newMs)
	vals["experiments.first_row_ms"] = median(first)
	if len(gaps) > 0 {
		vals["experiments.row_gap_us_p50"] = median(gaps)
	}
	vals["experiments.summary_ms"] = median(summary)
	vals["experiments.bytes_per_row"] = float64(bytes) / float64(rows)
}

// attributionTable prints where one ANC exchange of a run goes: each
// ladder layer's self time per exchange as a share of the sim's ANC run
// time per exchange, the CPU profile's package shares as a cross-check,
// the unaccounted remainder and the tracing overhead.
func attributionTable(w *strings.Builder, tr *tracer, probe layerProbe, perExchangeMs float64, vals map[string]float64) {
	self := tr.selfTimes()
	exchanges := float64(len(tr.durations("ladder.exchange")) * probe.Burst)
	fmt.Fprintf(w, "# where a run goes: %s, %s modem, one ANC exchange = %.3f ms of sim.run (p50 run / %d packets / %d cells)\n",
		probe.Scenario, modemOf(probe.Sim), perExchangeMs, packetsOf(probe.Sim), probe.Cells)
	fmt.Fprintf(w, "#   %-18s %12s %9s   %s\n", "layer", "ms/exchange", "share", "cpu cross-check (leaf-frame package share of the traced run)")
	rows := []struct{ span, cpu string }{
		{"frame.marshal", ""},
		{"phy.modulate", "msk+dqpsk"},
		{"channel.receive", "channel"},
		{"channel.amplify", ""},
		{"core.decode", "core+dsp"},
		{"ladder.exchange", ""},
	}
	accounted := 0.0
	for _, r := range rows {
		v := float64(self[r.span]) / exchanges / 1e6
		accounted += v
		label := r.span
		if r.span == "ladder.exchange" {
			label = "ladder glue"
		}
		cpu := ""
		if r.cpu != "" {
			sum := 0.0
			for _, g := range strings.Split(r.cpu, "+") {
				sum += vals["cpu."+g+"_share"]
			}
			cpu = fmt.Sprintf("cpu.%s = %.3f", r.cpu, sum)
		}
		fmt.Fprintf(w, "#   %-18s %12.4f %8.1f%%   %s\n", label, v, 100*v/perExchangeMs, cpu)
	}
	fmt.Fprintf(w, "#   %-18s %12.4f %8.1f%%   (rest of sim.run: scheduling, accounting, payload draws)\n",
		"unaccounted", perExchangeMs-accounted, 100*(1-accounted/perExchangeMs))
	fmt.Fprintf(w, "#   trace.accounted_share = %.3f, trace.overhead_pct = %.3f%%\n", vals["trace.accounted_share"], vals["trace.overhead_pct"])
	type kv struct {
		k string
		v float64
	}
	var shares []kv
	other := 1.0
	for _, g := range cpuGroups {
		shares = append(shares, kv{g, vals["cpu."+g+"_share"]})
		other -= vals["cpu."+g+"_share"]
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].v > shares[j].v })
	var parts []string
	for _, s := range shares {
		parts = append(parts, fmt.Sprintf("%s %.3f", s.k, s.v))
	}
	parts = append(parts, fmt.Sprintf("other %.3f", other))
	fmt.Fprintf(w, "#   cpu shares: %s\n", strings.Join(parts, ", "))
}

func modemOf(cfg sim.Config) string {
	if cfg.Modem == "" {
		return phy.Default
	}
	return cfg.Modem
}

// ---- the traced workloads -----------------------------------------------

func tracePaperSummary(e env) (*outcome, error) {
	probe := layerProbe{Scenario: "alice-bob", Cells: 1, Burst: 1, Sim: sim.DefaultConfig()}
	return tracedRun(e, "paper-summary", probe, func(tr *tracer, out *outcome, vals map[string]float64) error {
		if _, err := paperSummary(e, tr, out); err != nil {
			return err
		}
		vals["experiments.format_ms"] = median(durMs(tr.durations("experiments.format")))
		// The text path hides its rows; stream the same campaigns once
		// to compare the streaming seam's costs on this workload.
		var cs []*streamedCampaign
		for i, f := range paperFigures {
			opts := experiments.StreamOptions{Options: paperOptions(cycleSeed(e.Seed, i, 0), e.Workers, 0)}
			c, err := streamCampaign(tr, 3_000_000+i, opts, f.Topology)
			if err != nil {
				return err
			}
			cs = append(cs, c)
		}
		streamerLayer(cs, vals)
		return nil
	})
}

func traceDenseTrace(e env) (*outcome, error) {
	probe := layerProbe{Scenario: "pairs4", Cells: 4, Burst: 2, Sim: denseOptions(0, 0, 0).Sim, Trace: true}
	return tracedRun(e, "dense-trace", probe, func(tr *tracer, out *outcome, vals map[string]float64) error {
		r, err := denseTrace(e, tr, out)
		if err != nil {
			return err
		}
		streamerLayer(r.campaigns, vals)
		return nil
	})
}

func traceServeMix(e env) (*outcome, error) {
	cfg := sim.DefaultConfig()
	cfg.Packets = servePackets
	probe := layerProbe{Scenario: "alice-bob", Cells: 1, Burst: 1, Sim: cfg}
	return tracedRun(e, "serve-mix", probe, func(tr *tracer, out *outcome, vals map[string]float64) error {
		r, err := serveMix(e, tr, out)
		if err != nil {
			return err
		}
		serveLayer(tr, r, vals)
		streamerLayer(r.sampled, vals)
		return nil
	})
}

// serveLayer records each request's spans from its observed timestamps
// and fills the serve.* metrics.
func serveLayer(tr *tracer, r *serveRun, vals map[string]float64) {
	var headers, waits, replays []float64
	replayBytes, replaySecs := 0.0, 0.0
	for i, rp := range append(append([]reply(nil), r.misses...), r.replays...) {
		op := 4_000_000 + i
		root := tr.record("serve.request", 0, op, rp.Sent, rp.Done)
		tr.record("serve.headers", root, op, rp.Sent, rp.Headers)
		if rp.Err != nil || rp.Status != http.StatusOK {
			continue
		}
		headers = append(headers, ms(rp.Headers.Sub(rp.Sent)))
		if rp.Call.Tag >= 0 {
			// Due time to the moment the job could start: never negative,
			// since a request is sent no earlier than it is due.
			waits = append(waits, ms(rp.Start.Sub(rp.Due)))
		} else {
			replays = append(replays, ms(rp.Done.Sub(rp.Due)))
			replayBytes += float64(len(rp.Body))
			replaySecs += rp.Done.Sub(rp.Sent).Seconds()
		}
	}
	vals["serve.headers_ms_p50"] = median(headers)
	vals["serve.queue_wait_ms_p50"] = median(waits)
	vals["serve.queue_wait_ms_tail"], _ = tail(waits)
	d := func(k string) float64 { return r.after[k] - r.before[k] }
	if n := d("ancserve_cache_hits_total") + d("ancserve_cache_misses_total"); n > 0 {
		vals["serve.cache_hit_ratio"] = d("ancserve_cache_hits_total") / n
	}
	if n := d("ancserve_job_duration_seconds_count"); n > 0 {
		vals["serve.job_run_ms_mean"] = 1000 * d("ancserve_job_duration_seconds_sum") / n
	}
	if replaySecs > 0 {
		vals["serve.replay_mb_per_s"] = replayBytes / replaySecs / 1e6
	}
	vals["serve.replay_ms_tail"], _ = tail(replays)
	vals["serve.rejected"] = float64(r.rejected)
	vals["serve.evicted"] = float64(r.evicted)
	vals["serve.generator_lag_ms_max"] = r.lag
}

func durMs(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e6
	}
	return out
}
