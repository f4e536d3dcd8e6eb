package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

func TestLinkApplyGainAndPhase(t *testing.T) {
	l := Link{Gain: 0.5, Phase: math.Pi / 3}
	s := dsp.Signal{1, 1i}
	out := l.Apply(s)
	want0 := complex(0.5, 0) * cmplx.Exp(complex(0, math.Pi/3))
	if cmplx.Abs(out[0]-want0) > 1e-12 {
		t.Errorf("out[0] = %v, want %v", out[0], want0)
	}
	// Power scales by Gain².
	if math.Abs(out.Power()-0.25*s.Power()) > 1e-12 {
		t.Errorf("power = %v, want %v", out.Power(), 0.25*s.Power())
	}
	if math.Abs(l.PowerGain()-0.25) > 1e-15 {
		t.Errorf("PowerGain = %v", l.PowerGain())
	}
}

func TestLinkFrequencyOffsetRotates(t *testing.T) {
	l := Link{Gain: 1, FreqOffset: 0.01}
	s := make(dsp.Signal, 100)
	for i := range s {
		s[i] = 1
	}
	out := l.Apply(s)
	// Sample n is rotated by n·0.01 radians.
	if got := cmplx.Phase(out[50]); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("phase at 50 = %v, want 0.5", got)
	}
	// Constant envelope preserved.
	for i, v := range out {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("magnitude at %d = %v", i, cmplx.Abs(v))
		}
	}
}

func TestReceiveSuperposition(t *testing.T) {
	a := dsp.Signal{1, 1, 1}
	b := dsp.Signal{1i, 1i}
	got := Receive(nil, 0,
		Transmission{Signal: a, Link: Link{Gain: 1}},
		Transmission{Signal: b, Link: Link{Gain: 1}, Delay: 1},
	)
	want := dsp.Signal{1, 1 + 1i, 1 + 1i}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReceiveTailPadIsNoise(t *testing.T) {
	ns := dsp.NewNoiseSource(0.01, 1)
	s := dsp.Signal{1, 1}
	got := Receive(ns, 50, Transmission{Signal: s, Link: Link{Gain: 1}})
	if len(got) != 52 {
		t.Fatalf("len = %d, want 52", len(got))
	}
	tail := got.Slice(2, 52)
	if p := tail.Power(); p > 0.05 {
		t.Errorf("tail power = %v, want ~noise floor 0.01", p)
	}
}

func TestReceiveNoNoiseSource(t *testing.T) {
	got := Receive(nil, 3, Transmission{Signal: dsp.Signal{2}, Link: Link{Gain: 1}})
	if len(got) != 4 || got[0] != 2 || got[3] != 0 {
		t.Errorf("got = %v", got)
	}
}

func TestReceiveNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	Receive(nil, 0, Transmission{Signal: dsp.Signal{1}, Delay: -1})
}

func TestReceiveEnergyAdds(t *testing.T) {
	// Two independent random-phase unit signals: expected combined power
	// is the sum of the individual powers (the §6.2 energy relation).
	rng := rand.New(rand.NewSource(2))
	n := 20000
	mk := func() dsp.Signal {
		s := make(dsp.Signal, n)
		for i := range s {
			s[i] = cmplx.Exp(complex(0, rng.Float64()*2*math.Pi))
		}
		return s
	}
	a, b := mk(), mk()
	got := Receive(nil, 0,
		Transmission{Signal: a, Link: Link{Gain: 0.8}},
		Transmission{Signal: b, Link: Link{Gain: 0.5}},
	).Power()
	want := 0.64 + 0.25
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("combined power = %v, want ~%v", got, want)
	}
}

func TestAmplifyFactorTheorem81(t *testing.T) {
	// With unit power, symmetric unit-gain links and unit noise:
	// A = sqrt(1/(1+1+1)) = 1/sqrt(3).
	got := AmplifyFactor(1, 1, 1, 1)
	if math.Abs(got-1/math.Sqrt(3)) > 1e-12 {
		t.Errorf("A = %v, want 1/sqrt(3)", got)
	}
	// Single-signal case.
	got = AmplifyFactor(4, 0.5, 0, 0)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("A = %v, want 2", got)
	}
}

func TestAmplifyFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive power did not panic")
		}
	}()
	AmplifyFactor(0, 1, 1, 1)
}

func TestAmplifyToRestoresPower(t *testing.T) {
	s := dsp.Signal{0.1, 0.1i, -0.1}
	out := AmplifyTo(s, 2)
	if math.Abs(out.Power()-2) > 1e-12 {
		t.Errorf("power = %v, want 2", out.Power())
	}
}

func TestAmplifyToAmplifiesNoiseToo(t *testing.T) {
	// The §8 low-SNR effect: re-amplification boosts embedded noise.
	ns := dsp.NewNoiseSource(0.1, 3)
	clean := make(dsp.Signal, 10000)
	for i := range clean {
		clean[i] = complex(0.3, 0)
	}
	rx := ns.AddTo(clean)         // power ≈ 0.09 + 0.1
	amplified := AmplifyTo(rx, 1) // scale ≈ sqrt(1/0.19) ≈ 2.29
	scale := amplified[0] / rx[0] // uniform complex scale
	noiseGain := real(scale * cmplx.Conj(scale))
	if noiseGain < 3 { // noise power multiplied ≈ 5.26
		t.Errorf("noise power gain = %v, expected amplification > 3", noiseGain)
	}
}

func TestRandomLinkStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const mean = 0.25
	var sumPower float64
	const n = 5000
	for i := 0; i < n; i++ {
		l := RandomLink(rng, mean, 3)
		sumPower += l.PowerGain()
		if l.Phase < 0 || l.Phase >= 2*math.Pi {
			t.Fatalf("phase %v out of range", l.Phase)
		}
	}
	avg := sumPower / n
	// Mean power within ~15% of target (uniform-in-dB jitter skews it up).
	if avg < mean*0.85 || avg > mean*1.3 {
		t.Errorf("mean power gain = %v, want ≈ %v", avg, mean)
	}
}

func TestRandomLinkDeterministic(t *testing.T) {
	a := RandomLink(rand.New(rand.NewSource(5)), 1, 3)
	b := RandomLink(rand.New(rand.NewSource(5)), 1, 3)
	if a != b {
		t.Error("same seed produced different links")
	}
}

func TestReceiveIntoMatchesReceive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(n int) dsp.Signal {
		s := make(dsp.Signal, n)
		for i := range s {
			s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return s
	}
	txs := []Transmission{
		{Signal: mk(300), Link: Link{Gain: 0.8, Phase: 0.7}},
		{Signal: mk(250), Link: Link{Gain: 0.6, Phase: -1.1, FreqOffset: 0.004}, Delay: 120},
	}
	want := Receive(dsp.NewNoiseSource(1e-3, 3), 50, txs...)
	got := ReceiveInto(nil, dsp.NewNoiseSource(1e-3, 3), 50, txs...)
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v != %v", i, got[i], want[i])
		}
	}
	if n := ReceiveLen(50, txs...); n != len(want) {
		t.Errorf("ReceiveLen = %d, want %d", n, len(want))
	}

	// Reusing a dirty oversized buffer must not leak stale samples.
	dirty := mk(1000)
	reused := ReceiveInto(dirty, dsp.NewNoiseSource(1e-3, 3), 50, txs...)
	for i := range want {
		if reused[i] != want[i] {
			t.Fatalf("reused buffer sample %d: %v != %v", i, reused[i], want[i])
		}
	}
}

func TestNoiseReseedMatchesFresh(t *testing.T) {
	ns := dsp.NewNoiseSource(1e-2, 1)
	ns.Samples(37) // advance the stream
	ns.Reseed(99)
	got := ns.Samples(16)
	want := dsp.NewNoiseSource(1e-2, 99).Samples(16)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v != %v", i, got[i], want[i])
		}
	}
}

// randomPhasors returns n unit-magnitude samples of random phase.
func randomPhasors(rng *rand.Rand, n int) dsp.Signal {
	s := make(dsp.Signal, n)
	for i := range s {
		s[i] = cmplx.Exp(complex(0, rng.Float64()*2*math.Pi))
	}
	return s
}

// The CFO rotation advances a phasor by recurrence and re-anchors it
// every anchorEvery samples. Over a million samples at ±0.024 rad/sample
// — twice the widest relative offset topologies draw (two nodes' offsets
// of up to ±0.012 each) — it must stay within 1e-12 of a per-sample
// complex exponential, and equal it bit for bit at every anchor.
func TestReceiveIntoCFOMatchesPerSampleExp(t *testing.T) {
	s := randomPhasors(rand.New(rand.NewSource(21)), 1<<20)
	for _, f := range []float64{0.024, -0.024} {
		l := Link{Gain: 0.9, Phase: 0.3, FreqOffset: f}
		got := ReceiveInto(nil, nil, 0, Transmission{Signal: s, Link: l})
		g := complex(l.Gain, 0) * cmplx.Exp(complex(0, l.Phase))
		worst := 0.0
		for n, v := range s {
			want := v * g * cmplx.Exp(complex(0, f*float64(n)))
			if n%anchorEvery == 0 && got[n] != want {
				t.Fatalf("f=%v anchor sample %d: %v, per-sample exp %v", f, n, got[n], want)
			}
			worst = max(worst, cmplx.Abs(got[n]-want))
		}
		if worst > 1e-12 {
			t.Errorf("f=%v: max |Δ| from per-sample exp = %.3g, want ≤ 1e-12", f, worst)
		}
	}
}

// Link.Apply and ReceiveInto share one rotation loop: Apply must equal a
// noise-free, zero-delay, single-transmission reception bit for bit. The
// first link has no frequency offset, where Apply is s.Scale(g): it pins
// ReceiveInto's unrotated v·g path.
func TestLinkApplyMatchesReceiveInto(t *testing.T) {
	s := randomPhasors(rand.New(rand.NewSource(23)), 3001)
	for _, l := range []Link{
		{Gain: 0.8, Phase: 0.7},
		{Gain: 0.8, Phase: 0.7, FreqOffset: 0.011},
		{Gain: 0.5, Phase: -1.9, FreqOffset: -0.024},
	} {
		want := ReceiveInto(nil, nil, 0, Transmission{Signal: s, Link: l})
		got := l.Apply(s)
		if len(got) != len(want) {
			t.Fatalf("%+v: Apply gave %d samples, ReceiveInto %d", l, len(got), len(want))
		}
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("%+v sample %d: Apply %v, ReceiveInto %v", l, n, got[n], want[n])
			}
		}
	}
}

// A reception into a reused buffer allocates nothing, CFO rotation and
// noise included.
func TestReceiveIntoReusedBufferAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	txs := []Transmission{
		{Signal: randomPhasors(rng, 2000), Link: Link{Gain: 0.8, Phase: 0.4, FreqOffset: 0.005}},
		{Signal: randomPhasors(rng, 2000), Link: Link{Gain: 0.7, Phase: -1.2, FreqOffset: -0.008}, Delay: 900},
	}
	noise := dsp.NewNoiseSource(1e-2, 1)
	buf := ReceiveInto(nil, noise, 64, txs...)
	if allocs := testing.AllocsPerRun(20, func() {
		buf = ReceiveInto(buf, noise, 64, txs...)
	}); allocs != 0 {
		t.Errorf("ReceiveInto into a reused buffer: %v allocs/op, want 0", allocs)
	}
}
