// Package stats provides the shared numerical machinery used across the
// privrange modules: deterministic random number generation, running
// moments, quantiles, relative-error metrics, and the Chebyshev bounds
// that underpin the paper's (α, δ) accuracy guarantees.
//
// RNGs come in two families behind one type. NewRNG, Child and Split
// are seeded math/rand generators; they drive data generation, node
// sampling, workloads and the experiments. NewStream and Reseed key a
// ChaCha8 CSPRNG (math/rand/v2) from (seed, stream); they drive every
// released noise draw, so the noise is cryptographically strong and
// one stream costs a single ChaCha8 block to key.
//
// Everything in this package is deterministic given a seed so that every
// experiment in EXPERIMENTS.md reproduces bit-for-bit.
package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
)

// RNG is a deterministic random source. Experiments hand each node /
// trial its own child so that changing the number of trials does not
// perturb the stream any single trial sees.
type RNG struct {
	rand *rand.Rand
	// stream is the keyed ChaCha8 source behind rand when the RNG came
	// from NewStream or Reseed; nil for the math/rand-seeded family.
	stream *chachaSource
}

// NewRNG returns a deterministic math/rand RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{rand: rand.New(rand.NewSource(seed))}
}

// Split returns the child RNG for id alone: it is seeded with
// SplitMix64(id), so it neither reads nor advances the parent and
// every parent returns the same child for the same id. Use Child when
// the child must also depend on the parent's seed.
func (r *RNG) Split(id int64) *RNG {
	return &RNG{rand: rand.New(rand.NewSource(int64(splitmix(uint64(id)))))}
}

// Child derives an independent RNG from this RNG's stream position and id.
// Unlike Split, Child incorporates the parent seed material, so two parents
// with different seeds yield different children for the same id.
func (r *RNG) Child(id int64) *RNG {
	base := r.rand.Uint64()
	return &RNG{rand: rand.New(rand.NewSource(int64(splitmix(base ^ splitmix(uint64(id))))))}
}

// NewStream returns the ChaCha8 stream keyed by (seed, stream). The
// 32-byte key is SplitMix64(seed) ‖ SplitMix64(stream) ‖ a 16-byte
// domain tag, all little-endian; SplitMix64 is a bijection, so
// distinct pairs get distinct keys and uncorrelated streams. It
// consumes no parent state, so callers can construct streams
// concurrently and in any order — the batch path hands query i the
// stream (batchKey, i) and gets bit-identical noise regardless of
// scheduling.
func NewStream(seed, stream int64) *RNG {
	src := &chachaSource{}
	src.c.Seed(streamKey(seed, stream))
	return &RNG{rand: rand.New(src), stream: src}
}

// Reseed re-keys this RNG in place to the stream (seed, stream): after
// Reseed(s, i) it emits exactly the sequence NewStream(s, i) would.
// On an RNG that is already a stream it allocates nothing and costs one
// ChaCha8 block, so batch code walks many streams with one scratch RNG
// while keeping the released values bit-identical to per-query
// streams. An RNG from NewRNG, Child or Split becomes a stream on its
// first Reseed.
func (r *RNG) Reseed(seed, stream int64) {
	if r.stream == nil {
		*r = *NewStream(seed, stream)
		return
	}
	r.stream.c.Seed(streamKey(seed, stream))
}

// streamTag separates stream keys from any other use of ChaCha8 keys
// built from the same words.
const streamTag = "privrange/stream"

// streamKey is the ChaCha8 key of stream (seed, stream).
func streamKey(seed, stream int64) [32]byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], splitmix(uint64(seed)))
	binary.LittleEndian.PutUint64(key[8:], splitmix(uint64(stream)))
	copy(key[16:], streamTag)
	return key
}

// chachaSource adapts ChaCha8 to math/rand's Source64, so both RNG
// families share the one set of derived draws (Float64, Intn, ...).
type chachaSource struct{ c randv2.ChaCha8 }

func (s *chachaSource) Uint64() uint64 { return s.c.Uint64() }
func (s *chachaSource) Int63() int64   { return int64(s.c.Uint64() >> 1) }

// Seed re-keys the source to stream (seed, 0); it exists to satisfy
// rand.Source and RNG never calls it.
func (s *chachaSource) Seed(seed int64) { s.c.Seed(streamKey(seed, 0)) }

// splitmix is the SplitMix64 finalizer, a strong 64-bit mixing function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.rand.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int { return r.rand.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.rand.Int63() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.rand.NormFloat64() }

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.rand.Float64() < p
}

// Exponential returns an exponential variate with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return r.rand.ExpFloat64() * mean
}

// Laplace returns a Laplace variate with location 0 and the given scale,
// sampled by inverse CDF: if U ~ Uniform(-1/2, 1/2) then
// -scale·sgn(U)·ln(1-2|U|) ~ Lap(scale).
func (r *RNG) Laplace(scale float64) float64 {
	u := r.rand.Float64() - 0.5
	if u == 0 {
		return 0
	}
	sign := 1.0
	if u < 0 {
		sign = -1.0
	}
	return -scale * sign * math.Log(1-2*math.Abs(u))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.rand.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.rand.Shuffle(n, swap) }
