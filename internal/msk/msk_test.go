package msk

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/frame"
)

func randomBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sps := range []int{1, 2, 4, 8} {
		m := New(WithSamplesPerSymbol(sps))
		for trial := 0; trial < 20; trial++ {
			in := randomBits(rng, 1+rng.Intn(500))
			got := m.Demodulate(m.Modulate(in))
			if !bits.Equal(in, got) {
				t.Fatalf("sps=%d trial=%d: round trip failed", sps, trial)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	m := New()
	f := func(data []byte) bool {
		in := make([]byte, len(data))
		for i, d := range data {
			in[i] = d & 1
		}
		return bits.Equal(in, m.Demodulate(m.Modulate(in)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstantEnvelope(t *testing.T) {
	// §5.2: the amplitude of the transmitted MSK signal is constant. This
	// property is what the §7.1 interference detector depends on.
	m := New(WithAmplitude(2.5))
	s := m.Modulate(randomBits(rand.New(rand.NewSource(2)), 300))
	for i, v := range s {
		if math.Abs(cmplx.Abs(v)-2.5) > 1e-9 {
			t.Fatalf("sample %d magnitude %v, want 2.5", i, cmplx.Abs(v))
		}
	}
}

func TestChannelInvariance(t *testing.T) {
	// Eq. 1: demodulation is invariant to attenuation h and phase shift γ.
	m := New()
	in := randomBits(rand.New(rand.NewSource(3)), 256)
	tx := m.Modulate(in)
	h := complex(0.173, 0) * cmplx.Exp(complex(0, 2.4))
	rx := tx.Scale(h)
	if !bits.Equal(in, m.Demodulate(rx)) {
		t.Error("demodulation not invariant to channel gain/phase")
	}
}

func TestDemodulateUnderNoise(t *testing.T) {
	// At 15 dB SNR (well below the 20–40 dB the paper says practical
	// systems use) a clean MSK link should be essentially error free.
	m := New()
	in := randomBits(rand.New(rand.NewSource(4)), 2000)
	tx := m.Modulate(in)
	ns := dsp.NewNoiseSource(dsp.FromDB(-15), 5) // signal power 1
	got := m.Demodulate(ns.AddTo(tx))
	if ber := bits.BER(in, got); ber > 0.001 {
		t.Errorf("BER at 15 dB = %v, want ~0", ber)
	}
}

func TestOversamplingSNRGain(t *testing.T) {
	// At a bruising 0 dB per-sample SNR, sps=8 must beat sps=1 clearly.
	rng := rand.New(rand.NewSource(6))
	in := randomBits(rng, 4000)
	berFor := func(sps int, seed int64) float64 {
		m := New(WithSamplesPerSymbol(sps))
		tx := m.Modulate(in)
		ns := dsp.NewNoiseSource(1, seed)
		return bits.BER(in, m.Demodulate(ns.AddTo(tx)))
	}
	b1 := berFor(1, 7)
	b8 := berFor(8, 8)
	if b8 >= b1/2 {
		t.Errorf("oversampling gain missing: sps=1 BER %v, sps=8 BER %v", b1, b8)
	}
}

func TestPhaseTrajectoryFig3(t *testing.T) {
	// Fig. 3: data 1010111000 produces the staircase
	// 0, π/2, 0, π/2, 0, π/2, π, 3π/2, π, π/2, 0.
	m := New()
	data := []byte{1, 0, 1, 0, 1, 1, 1, 0, 0, 0}
	want := []float64{0, 1, 0, 1, 0, 1, 2, 3, 2, 1, 0} // units of π/2
	got := m.PhaseTrajectory(data)
	if len(got) != len(want) {
		t.Fatalf("trajectory length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]*math.Pi/2) > 1e-12 {
			t.Errorf("trajectory[%d] = %v, want %vπ/2", i, got[i], want[i])
		}
	}
}

func TestModulatedPhaseMatchesTrajectory(t *testing.T) {
	// The actual signal's phase at symbol boundaries must equal the
	// trajectory (mod 2π).
	m := New(WithSamplesPerSymbol(3))
	data := []byte{1, 1, 0, 1, 0, 0}
	s := m.Modulate(data)
	traj := m.PhaseTrajectory(data)
	for i := range traj {
		samplePhase := cmplx.Phase(s[i*3])
		if math.Abs(dsp.WrapPhase(samplePhase-traj[i])) > 1e-9 {
			t.Errorf("boundary %d: signal phase %v, trajectory %v", i, samplePhase, traj[i])
		}
	}
}

func TestNumSamplesNumBits(t *testing.T) {
	m := New(WithSamplesPerSymbol(4))
	if got := m.NumSamples(10); got != 41 {
		t.Errorf("NumSamples(10) = %d, want 41", got)
	}
	if got := m.NumBits(41); got != 10 {
		t.Errorf("NumBits(41) = %d, want 10", got)
	}
	if got := m.NumBits(0); got != 0 {
		t.Errorf("NumBits(0) = %d", got)
	}
	if got := m.NumBits(1); got != 0 {
		t.Errorf("NumBits(1) = %d", got)
	}
	// Partial trailing symbol is not decoded.
	if got := m.NumBits(44); got != 10 {
		t.Errorf("NumBits(44) = %d, want 10", got)
	}
}

func TestSoftDemodulateMagnitude(t *testing.T) {
	// Noise-free soft outputs are exactly ±π/2.
	m := New()
	in := []byte{1, 0, 1}
	soft := m.SoftDemodulate(m.Modulate(in))
	want := []float64{math.Pi / 2, -math.Pi / 2, math.Pi / 2}
	for i := range want {
		if math.Abs(soft[i]-want[i]) > 1e-9 {
			t.Errorf("soft[%d] = %v, want %v", i, soft[i], want[i])
		}
	}
}

func TestPhaseDiffsSumPerSymbol(t *testing.T) {
	m := New(WithSamplesPerSymbol(5))
	in := []byte{1, 0}
	diffs := m.PhaseDiffs(in)
	if len(diffs) != 10 {
		t.Fatalf("len = %d, want 10", len(diffs))
	}
	var sum1, sum0 float64
	for _, d := range diffs[:5] {
		sum1 += d
	}
	for _, d := range diffs[5:] {
		sum0 += d
	}
	if math.Abs(sum1-math.Pi/2) > 1e-12 || math.Abs(sum0+math.Pi/2) > 1e-12 {
		t.Errorf("per-symbol sums %v, %v, want ±π/2", sum1, sum0)
	}
}

func TestModulateEmpty(t *testing.T) {
	m := New()
	s := m.Modulate(nil)
	if len(s) != 1 {
		t.Errorf("empty modulation length %d, want 1 (reference sample)", len(s))
	}
	if got := m.Demodulate(s); len(got) != 0 {
		t.Errorf("demodulated empty = %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"sps 0":        func() { New(WithSamplesPerSymbol(0)) },
		"amplitude 0":  func() { New(WithAmplitude(0)) },
		"amplitude <0": func() { New(WithAmplitude(-1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSignalPowerEqualsAmplitudeSquared(t *testing.T) {
	m := New(WithAmplitude(3))
	s := m.Modulate(randomBits(rand.New(rand.NewSource(9)), 100))
	if math.Abs(s.Power()-9) > 1e-9 {
		t.Errorf("power = %v, want 9", s.Power())
	}
}

func TestDecideDiffsMatchesDemodulation(t *testing.T) {
	// On clean per-sample diffs, DecideDiffs must reproduce the bits.
	m := New()
	in := randomBits(rand.New(rand.NewSource(20)), 300)
	got := m.DecideDiffs(m.PhaseDiffs(in), nil)
	if !bits.Equal(in, got) {
		t.Error("DecideDiffs on clean diffs failed")
	}
}

func TestDecideDiffsWeights(t *testing.T) {
	// A corrupted sample with near-zero weight must not flip the symbol.
	m := New(WithSamplesPerSymbol(4))
	in := []byte{1}
	diffs := m.PhaseDiffs(in)
	weights := []float64{1, 1, 1, 1}
	diffs[2] = -math.Pi // corrupted estimate
	weights[2] = 0.01   // ...flagged as ill-conditioned
	if got := m.DecideDiffs(diffs, weights); got[0] != 1 {
		t.Error("down-weighted corruption flipped the symbol")
	}
	// Unweighted, the same corruption wins.
	if got := m.DecideDiffs(diffs, nil); got[0] != 0 {
		t.Skip("corruption magnitude insufficient for the control case")
	}
}

func TestStepPrior(t *testing.T) {
	m := New(WithSamplesPerSymbol(4))
	step := math.Pi / 8
	if got := m.StepPrior(step); got > 1e-12 {
		t.Errorf("StepPrior(+step) = %v", got)
	}
	if got := m.StepPrior(-step); got > 1e-12 {
		t.Errorf("StepPrior(−step) = %v", got)
	}
	if got := m.StepPrior(0); math.Abs(got-step) > 1e-12 {
		t.Errorf("StepPrior(0) = %v, want %v", got, step)
	}
	// Symmetric under sign change — must not bias bit decisions.
	for _, d := range []float64{0.3, 1.1, 2.9} {
		if math.Abs(m.StepPrior(d)-m.StepPrior(-d)) > 1e-12 {
			t.Errorf("StepPrior asymmetric at %v", d)
		}
	}
}

func TestBitsPerSymbol(t *testing.T) {
	if New().BitsPerSymbol() != 1 {
		t.Error("MSK carries one bit per symbol")
	}
}

// The largest frame the header's 16-bit length field can describe.
var maxFrameBits = frame.FrameBits(1<<16 - 1)

// Modulate reads its samples from a phasor table; it must agree with a
// per-sample complex exponential of the ideal phase ramp θ[n] = k·π/(2S),
// k the running count of +1/−1 steps, over the longest frame.
func TestModulateMatchesPerSampleExp(t *testing.T) {
	const amp = 0.7
	in := randomBits(rand.New(rand.NewSource(17)), maxFrameBits)
	for _, sps := range []int{1, 2, 4, 8} {
		m := New(WithSamplesPerSymbol(sps), WithAmplitude(amp))
		s := m.Modulate(in)
		if len(s) != m.NumSamples(len(in)) {
			t.Fatalf("sps=%d: %d samples, want %d", sps, len(s), m.NumSamples(len(in)))
		}
		step := PhaseStep / float64(sps)
		k, n := 0, 0
		check := func() {
			j := k % (4 * sps) // wrap the index, not the angle: exact
			if j > 2*sps {
				j -= 4 * sps
			} else if j <= -2*sps {
				j += 4 * sps
			}
			want := complex(amp, 0) * cmplx.Exp(complex(0, float64(j)*step))
			if d := cmplx.Abs(s[n] - want); d > 1e-12 {
				t.Fatalf("sps=%d sample %d: %v, per-sample exp %v (|Δ| = %.3g)", sps, n, s[n], want, d)
			}
			n++
		}
		check()
		for _, b := range in {
			for range sps {
				if b&1 == 1 {
					k++
				} else {
					k--
				}
				check()
			}
		}
	}
}

// For S ∈ {1, 2, 4} the ±π/(2S) steps are exact binary fractions of π,
// so a float phase accumulated by dsp.WrapPhase never rounds and the
// table reproduces that ramp's exponentials bit for bit. Campaigns run at
// S = 4, so their transmitted samples are unchanged.
func TestModulateBitIdenticalToAccumulatedPhase(t *testing.T) {
	in := randomBits(rand.New(rand.NewSource(18)), maxFrameBits)
	for _, sps := range []int{1, 2, 4} {
		m := New(WithSamplesPerSymbol(sps), WithAmplitude(1.3))
		s := m.Modulate(in)
		step := PhaseStep / float64(sps)
		phase, n := 0.0, 1
		for _, b := range in {
			d := -step
			if b&1 == 1 {
				d = step
			}
			for range sps {
				phase = dsp.WrapPhase(phase + d)
				if want := complex(1.3, 0) * cmplx.Exp(complex(0, phase)); s[n] != want {
					t.Fatalf("sps=%d sample %d: %v, accumulated-phase exp %v", sps, n, s[n], want)
				}
				n++
			}
		}
	}
}

// A Modem is safe for concurrent use: goroutines modulating with one
// Modem share its phasor table and must each get the serial result.
func TestModulateConcurrent(t *testing.T) {
	m := New(WithAmplitude(0.9))
	in := randomBits(rand.New(rand.NewSource(19)), 2000)
	want := m.Modulate(in)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := m.Modulate(in)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("concurrent Modulate sample %d: %v, serial %v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// StepPrior wraps its argument; a non-finite or huge phase difference
// must come back (NaN for ±Inf), not spin in the wrap.
func TestStepPriorTerminates(t *testing.T) {
	m := New()
	done := make(chan [3]float64, 1)
	go func() {
		done <- [3]float64{m.StepPrior(math.Inf(-1)), m.StepPrior(math.Inf(1)), m.StepPrior(1e17)}
	}()
	select {
	case got := <-done:
		if !math.IsNaN(got[0]) || !math.IsNaN(got[1]) {
			t.Errorf("StepPrior(∓Inf) = %v, %v, want NaN", got[0], got[1])
		}
		if got[2] < 0 || got[2] > math.Pi {
			t.Errorf("StepPrior(1e17) = %v, outside [0, π]", got[2])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("StepPrior did not return within 2 s")
	}
}
