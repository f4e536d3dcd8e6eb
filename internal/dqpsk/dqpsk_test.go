package dqpsk

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/dsp"
)

// The modem must satisfy the interference decoder's contract.
var _ core.PhyModem = (*Modem)(nil)

func randomBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sps := range []int{1, 2, 4, 8} {
		m := New(WithSamplesPerSymbol(sps))
		for trial := 0; trial < 20; trial++ {
			in := randomBits(rng, 2*(1+rng.Intn(300)))
			got := m.Demodulate(m.Modulate(in))
			if !bits.Equal(in, got) {
				t.Fatalf("sps=%d trial=%d round trip failed", sps, trial)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	m := New()
	f := func(data []byte) bool {
		in := make([]byte, len(data)/2*2)
		for i := range in {
			in[i] = data[i] & 1
		}
		return bits.Equal(in, m.Demodulate(m.Modulate(in)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOddLengthPads(t *testing.T) {
	m := New()
	got := m.Demodulate(m.Modulate([]byte{1, 0, 1}))
	if len(got) != 4 || got[0] != 1 || got[1] != 0 || got[2] != 1 || got[3] != 0 {
		t.Errorf("odd-length modulation decoded to %v", got)
	}
}

func TestConstantEnvelope(t *testing.T) {
	m := New(WithAmplitude(1.7))
	s := m.Modulate(randomBits(rand.New(rand.NewSource(2)), 400))
	for i, v := range s {
		if math.Abs(cmplx.Abs(v)-1.7) > 1e-9 {
			t.Fatalf("sample %d magnitude %v", i, cmplx.Abs(v))
		}
	}
}

func TestChannelInvariance(t *testing.T) {
	m := New()
	in := randomBits(rand.New(rand.NewSource(3)), 256)
	rx := m.Modulate(in).Scale(complex(0.21, 0) * cmplx.Exp(complex(0, 2.9)))
	if !bits.Equal(in, m.Demodulate(rx)) {
		t.Error("demodulation not invariant to channel gain/phase")
	}
}

func TestDemodulateUnderNoise(t *testing.T) {
	m := New()
	in := randomBits(rand.New(rand.NewSource(4)), 2000)
	tx := m.Modulate(in)
	ns := dsp.NewNoiseSource(dsp.FromDB(-18), 5)
	if ber := bits.BER(in, m.Demodulate(ns.AddTo(tx))); ber > 0.001 {
		t.Errorf("BER at 18 dB = %v", ber)
	}
}

func TestPhaseDiffsProfile(t *testing.T) {
	m := New(WithSamplesPerSymbol(4))
	// Symbols: 00 → +π/4, 11 → −3π/4.
	diffs := m.PhaseDiffs([]byte{0, 0, 1, 1})
	if len(diffs) != 8 {
		t.Fatalf("len = %d", len(diffs))
	}
	if math.Abs(diffs[0]-math.Pi/4) > 1e-12 || math.Abs(diffs[4]+3*math.Pi/4) > 1e-12 {
		t.Errorf("jump positions wrong: %v", diffs)
	}
	for _, i := range []int{1, 2, 3, 5, 6, 7} {
		if diffs[i] != 0 {
			t.Errorf("intra-symbol diff %d = %v, want 0", i, diffs[i])
		}
	}
}

func TestPhaseDiffsMatchSignal(t *testing.T) {
	m := New(WithSamplesPerSymbol(3))
	in := randomBits(rand.New(rand.NewSource(6)), 40)
	s := m.Modulate(in)
	want := m.PhaseDiffs(in)
	for n := 0; n+1 < len(s); n++ {
		got := dsp.PhaseDiff(s[n], s[n+1])
		if math.Abs(dsp.WrapPhase(got-want[n])) > 1e-9 {
			t.Fatalf("diff %d = %v, want %v", n, got, want[n])
		}
	}
}

func TestDecideDiffsRecoversBits(t *testing.T) {
	m := New()
	in := randomBits(rand.New(rand.NewSource(7)), 128)
	diffs := m.PhaseDiffs(in)
	got := m.DecideDiffs(diffs, nil)
	if !bits.Equal(in, got) {
		t.Error("DecideDiffs on clean diffs failed")
	}
	// Robust to per-sample noise on the diff estimates.
	rng := rand.New(rand.NewSource(8))
	noisy := make([]float64, len(diffs))
	for i, d := range diffs {
		noisy[i] = d + rng.NormFloat64()*0.08
	}
	if !bits.Equal(in, m.DecideDiffs(noisy, nil)) {
		t.Error("DecideDiffs under mild noise failed")
	}
}

func TestStepPrior(t *testing.T) {
	m := New()
	for _, legal := range []float64{0, math.Pi / 4, -math.Pi / 4, 3 * math.Pi / 4, -3 * math.Pi / 4} {
		if got := m.StepPrior(legal); got > 1e-12 {
			t.Errorf("StepPrior(%v) = %v, want 0", legal, got)
		}
	}
	if got := m.StepPrior(math.Pi / 8); math.Abs(got-math.Pi/8) > 1e-12 {
		t.Errorf("StepPrior(π/8) = %v, want π/8", got)
	}
	// π is equidistant from ±3π/4: distance π/4.
	if got := m.StepPrior(math.Pi); math.Abs(got-math.Pi/4) > 1e-12 {
		t.Errorf("StepPrior(π) = %v, want π/4", got)
	}
}

// StepPrior wraps its argument; a non-finite or huge phase difference
// must come back (NaN for ±Inf), not spin in the wrap.
func TestStepPriorTerminates(t *testing.T) {
	m := New()
	done := make(chan [3]float64, 1)
	go func() {
		done <- [3]float64{m.StepPrior(math.Inf(-1)), m.StepPrior(math.Inf(1)), m.StepPrior(-1e17)}
	}()
	select {
	case got := <-done:
		if !math.IsNaN(got[0]) || !math.IsNaN(got[1]) {
			t.Errorf("StepPrior(∓Inf) = %v, %v, want NaN", got[0], got[1])
		}
		if got[2] < 0 || got[2] > math.Pi {
			t.Errorf("StepPrior(-1e17) = %v, outside [0, π]", got[2])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("StepPrior did not return within 2 s")
	}
}

func TestGrayMapping(t *testing.T) {
	// Adjacent jumps differ in exactly one bit (Gray property): the most
	// likely demodulation error costs one bit, not two.
	order := []int{0b00, 0b01, 0b11, 0b10} // +π/4, +3π/4, −3π/4, −π/4
	for i := range order {
		a, b := order[i], order[(i+1)%len(order)]
		if popcount2(a^b) != 1 {
			t.Errorf("symbols %02b and %02b differ in %d bits", a, b, popcount2(a^b))
		}
	}
}

func popcount2(x int) int { return x&1 + x>>1&1 }

func TestNumSamplesNumBits(t *testing.T) {
	m := New(WithSamplesPerSymbol(4))
	if got := m.NumSamples(10); got != 21 {
		t.Errorf("NumSamples(10) = %d, want 21", got)
	}
	if got := m.NumBits(21); got != 10 {
		t.Errorf("NumBits(21) = %d, want 10", got)
	}
	if got := m.NumSamples(9); got != 21 { // padded to 5 symbols
		t.Errorf("NumSamples(9) = %d, want 21", got)
	}
	if m.NumBits(0) != 0 || m.NumBits(1) != 0 {
		t.Error("degenerate NumBits not 0")
	}
}

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"sps 0":       func() { New(WithSamplesPerSymbol(0)) },
		"amplitude 0": func() { New(WithAmplitude(0)) },
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
