// Package channel models the wireless medium at complex-baseband sample
// level. It is the substitute for the paper's USRP radios: everything the
// paper's receivers see — attenuation, phase shift, start offsets between
// interfering transmissions, additive white Gaussian noise, and the
// relay's re-amplification — is produced here with the same mathematical
// model the paper states in §5.3, §6 and Eq. 22–23.
package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/dsp"
)

// Link is a point-to-point channel: y[n] = h·e^{iγ}·x[n−delay] + noise.
// The paper approximates every channel by an attenuation and a phase shift
// (§5.3, citing [28]); Link additionally supports a small carrier-frequency
// offset for robustness experiments.
type Link struct {
	Gain       float64 // amplitude attenuation h (0 < h ≤ 1 typically)
	Phase      float64 // phase shift γ in radians
	FreqOffset float64 // residual CFO in radians/sample (0 = ideal)
}

// Apply passes a transmitted signal through the link (without noise or
// delay — the Medium owns those, because noise is per-receiver and delay
// is per-transmission).
func (l Link) Apply(s dsp.Signal) dsp.Signal {
	g := complex(l.Gain, 0) * cmplx.Exp(complex(0, l.Phase))
	if l.FreqOffset == 0 {
		return s.Scale(g)
	}
	out := make(dsp.Signal, len(s))
	rotateAdd(out, s, g, l.FreqOffset)
	return out
}

// anchorEvery is how many samples rotateAdd advances its CFO phasor by
// recurrence before re-deriving it from math.Sincos.
const anchorEvery = 64

// rotateAdd adds v·g·e^{i·f·n} to out[n] for every sample v = s[n]: the
// carrier-frequency-offset rotation shared by Link.Apply and ReceiveInto.
//
// The phasor is not a per-sample exponential. At every anchorEvery-th
// sample it is math.Sincos(f·n), bit for bit what cmplx.Exp(i·f·n)
// returns; between anchors it advances by rot ← rot·e^{if}. A
// recurrence alone would follow the exact angle f·n, while the
// exponential of the rounded product f·n is off by up to half an ulp of
// f·n — 1.8e-12 rad at n = 1e6, f = 0.024 — so each sample also applies
// the first-order correction e^{iε} ≈ 1 + iε for ε = fl(f·n) − f·n. What
// is left is the recurrence's own drift, a few ulps per step, which the
// next anchor discards.
//
//anc:hotpath
func rotateAdd(out, s dsp.Signal, g complex128, f float64) {
	sinF, cosF := math.Sincos(f)
	step := complex(cosF, sinF)
	for base := 0; base < len(s); base += anchorEvery {
		theta := f * float64(base)
		sin, cos := math.Sincos(theta)
		rot := complex(cos, sin)
		block := s[base:min(base+anchorEvery, len(s))]
		dst := out[base : base+len(block)]
		for j, v := range block {
			// fl(f·n) − fl(f·base) is exact (Sterbenz: base ≤ n ≤ 2·base
			// past the first block), so eps is the rounding of f·n
			// relative to the recurrence's angle f·base + f·j.
			eps := (f*float64(base+j) - theta) - f*float64(j)
			r := complex(real(rot)-imag(rot)*eps, imag(rot)+real(rot)*eps)
			dst[j] += v * g * r
			rot *= step
		}
	}
}

// PowerGain returns the link's power attenuation h².
func (l Link) PowerGain() float64 { return l.Gain * l.Gain }

// Transmission is one sender's contribution to a reception: its baseband
// samples, the link it traverses, and its start delay in samples relative
// to the reception window.
type Transmission struct {
	Signal dsp.Signal
	Link   Link
	Delay  int
}

// Receive superposes any number of concurrent transmissions as seen by one
// receiver and adds that receiver's thermal noise: the channel "naturally
// mixes these signals" (§1). The returned window is padded with tail
// samples of pure noise so detectors can observe the energy drop at packet
// end (§7.4: Bob buffers until energy falls to the noise floor).
func Receive(noise *dsp.NoiseSource, tailPad int, txs ...Transmission) dsp.Signal {
	return ReceiveInto(nil, noise, tailPad, txs...)
}

// ReceiveLen returns the reception window length Receive would produce:
// the union of the delayed transmissions plus the tail pad.
func ReceiveLen(tailPad int, txs ...Transmission) int {
	n := 0
	for _, tx := range txs {
		if tx.Delay < 0 {
			panic(fmt.Sprintf("channel: negative delay %d", tx.Delay))
		}
		if end := tx.Delay + len(tx.Signal); end > n {
			n = end
		}
	}
	return n + tailPad
}

// ReceiveInto is Receive synthesizing the reception into buf's storage
// (grown when too small): link gain, phase, carrier offset and delay are
// applied while accumulating, and noise is added in place, so a reused
// buffer makes a reception allocation free. The sample values are
// identical to Receive's.
func ReceiveInto(buf dsp.Signal, noise *dsp.NoiseSource, tailPad int, txs ...Transmission) dsp.Signal {
	n := ReceiveLen(tailPad, txs...)
	if cap(buf) < n {
		buf = make(dsp.Signal, n)
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
	}
	for _, tx := range txs {
		g := complex(tx.Link.Gain, 0) * cmplx.Exp(complex(0, tx.Link.Phase))
		out := buf[tx.Delay:]
		if tx.Link.FreqOffset == 0 {
			for i, v := range tx.Signal {
				out[i] += v * g
			}
			continue
		}
		rotateAdd(out, tx.Signal, g, tx.Link.FreqOffset)
	}
	if noise != nil {
		noise.AddInPlace(buf)
	}
	return buf
}

// AmplifyFactor returns the relay's amplification A of Theorem 8.1's inner
// bound (Eq. 23): the relay rescales so its transmit power equals P given
// that it received two signals with power gains h1², h2² plus unit-power
// noise:
//
//	A = sqrt(P / (P·h1² + P·h2² + N))
//
// where N is the relay's noise power. The same normalization applies when
// only one signal was received (set h2 = 0).
func AmplifyFactor(p, h1, h2, noisePower float64) float64 {
	if p <= 0 {
		panic(fmt.Sprintf("channel: non-positive power %v", p))
	}
	return math.Sqrt(p / (p*h1*h1 + p*h2*h2 + noisePower))
}

// AmplifyTo rescales a received signal to average power p — what the
// paper's router does before broadcasting an interfered signal (§2, §7.5).
// Unlike AmplifyFactor it needs no channel knowledge: the relay measures
// the power it received (signal plus noise) and normalizes it, amplifying
// the embedded noise along with the signals, which is exactly the low-SNR
// penalty §8 discusses.
func AmplifyTo(s dsp.Signal, p float64) dsp.Signal {
	return s.ScaleTo(p)
}

// AmplifyToInPlace is AmplifyTo overwriting s's samples instead of
// allocating a copy, for relays whose received buffer is no longer needed
// once the amplified broadcast is built. A zero signal is returned
// unchanged. Sample values equal AmplifyTo's.
func AmplifyToInPlace(s dsp.Signal, p float64) dsp.Signal {
	cur := s.Power()
	if cur == 0 {
		return s
	}
	return s.ScaleInPlace(complex(math.Sqrt(p/cur), 0))
}

// RandomLink draws a link with log-normal-ish gain jitter around a target
// mean power gain and a uniform random phase. Experiments use it to give
// every run an independent channel realization, which is what spreads the
// CDFs in Figs. 9, 10 and 12.
func RandomLink(rng *rand.Rand, meanPowerGain, gainJitterDB float64) Link {
	jitter := dsp.FromDB((rng.Float64()*2 - 1) * gainJitterDB)
	return Link{
		Gain:  math.Sqrt(meanPowerGain * jitter),
		Phase: rng.Float64() * 2 * math.Pi,
	}
}
