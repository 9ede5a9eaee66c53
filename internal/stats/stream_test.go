package stats

import (
	"math"
	"testing"
)

// streamPairs sweeps (seed, stream) over small, negative and extreme
// values, the shapes batch keys and lanes take.
var streamPairs = [][2]int64{
	{0, 0}, {1, 0}, {0, 1}, {1, 1}, {-1, 0}, {0, -1}, {-1, -1},
	{42, 63}, {7, -1}, {math.MaxInt64, 0}, {0, math.MaxInt64},
	{math.MinInt64, 0}, {0, math.MinInt64}, {math.MinInt64, math.MaxInt64},
	{math.MaxInt64, math.MinInt64}, {1 << 62, -(1 << 62)}, {-123456789, 987654321},
}

// TestReseedMatchesNewStream: a scratch stream re-keyed in place, and a
// math/rand RNG converted by its first Reseed, both emit exactly the
// NewStream sequence.
func TestReseedMatchesNewStream(t *testing.T) {
	t.Parallel()
	scratch := NewStream(99, 99)
	for _, sp := range streamPairs {
		want := NewStream(sp[0], sp[1])
		scratch.Reseed(sp[0], sp[1])
		converted := NewRNG(sp[0])
		converted.Reseed(sp[0], sp[1])
		for k := 0; k < 100; k++ {
			w := want.Int63()
			if got := scratch.Int63(); got != w {
				t.Fatalf("scratch Reseed%v draw %d = %d, NewStream %d", sp, k, got, w)
			}
			if got := converted.Int63(); got != w {
				t.Fatalf("converted Reseed%v draw %d = %d, NewStream %d", sp, k, got, w)
			}
		}
	}
}

// TestStreamsDistinct: no two swept pairs share a first output, so the
// key derivation separates them.
func TestStreamsDistinct(t *testing.T) {
	t.Parallel()
	seen := make(map[uint64][2]int64)
	for _, sp := range streamPairs {
		first := NewStream(sp[0], sp[1]).rand.Uint64()
		if prev, ok := seen[first]; ok {
			t.Fatalf("streams %v and %v share their first output", prev, sp)
		}
		seen[first] = sp
	}
}

// TestReseedAllocatesNothing: re-keying a stream and drawing from it
// is allocation-free.
func TestReseedAllocatesNothing(t *testing.T) {
	rng := NewStream(1, 0)
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		rng.Reseed(17, i)
		_ = rng.Laplace(2)
	})
	if allocs != 0 {
		t.Errorf("Reseed plus a draw allocates %v/op, want 0", allocs)
	}
}

// TestRNGGoldenPrefixes pins the first outputs of every RNG
// constructor. NewRNG, Child and Split drive data generation, node
// samples and workloads, so a drift here silently changes every
// dataset and results/fig*.csv; NewStream's vector pins the ChaCha8
// key derivation behind the released noise.
func TestRNGGoldenPrefixes(t *testing.T) {
	t.Parallel()
	prefix := func(r *RNG) [4]int64 {
		var out [4]int64
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	cases := []struct {
		name string
		rng  *RNG
		want [4]int64
	}{
		{"NewRNG(1)", NewRNG(1), [4]int64{5577006791947779410, 8674665223082153551, 6129484611666145821, 4037200794235010051}},
		{"NewRNG(-7)", NewRNG(-7), [4]int64{747107023976529931, 7084732931963018726, 6995717851144434728, 814608651260322299}},
		{"NewRNG(1).Child(3)", NewRNG(1).Child(3), [4]int64{232573555023930826, 5473659556567070270, 2871977582701255901, 4128700296580472924}},
		{"NewRNG(1).Split(3)", NewRNG(1).Split(3), [4]int64{600990598437340381, 4884343957518494605, 848803931395099032, 6421631163417640381}},
		{"NewStream(1, 0)", NewStream(1, 0), [4]int64{2250693445844100220, 3685246329054324333, 5369684267808362183, 6473353933349661544}},
		{"NewStream(-1, 5)", NewStream(-1, 5), [4]int64{3959567541575362510, 5488221994689209572, 663926395435759060, 1372518871609767660}},
		{"NewStream(1, -1)", NewStream(1, -1), [4]int64{2548577323300311060, 8108468040711639247, 4292325371456129611, 3904278446967099313}},
	}
	for _, c := range cases {
		if got := prefix(c.rng); got != c.want {
			t.Errorf("%s prefix = %#v, want %#v", c.name, got, c.want)
		}
	}
}

// TestLaplaceAcrossStreamsPassesKS draws one Laplace variate from each
// of 50 000 distinct streams — the batch path's usage — so it tests
// independence across streams, not just within one.
func TestLaplaceAcrossStreamsPassesKS(t *testing.T) {
	t.Parallel()
	const scale = 3.0
	rng := NewStream(0, 0)
	samples := make([]float64, 50000)
	for i := range samples {
		rng.Reseed(2019, int64(i))
		samples[i] = rng.Laplace(scale)
	}
	cdf := func(x float64) float64 {
		if x < 0 {
			return 0.5 * math.Exp(x/scale)
		}
		return 1 - 0.5*math.Exp(-x/scale)
	}
	stat, critical, pass, err := KSTest(samples, cdf, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !pass {
		t.Errorf("one draw per stream fails KS: D=%v critical=%v", stat, critical)
	}
}

// sinkDraw keeps benchmarked draws observable to the compiler.
var sinkDraw float64

// BenchmarkStreamReseed times keying one stream plus one Laplace draw,
// the per-query noise cost of AnswerBatch.
func BenchmarkStreamReseed(b *testing.B) {
	rng := NewStream(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Reseed(1, int64(i))
		sinkDraw = rng.Laplace(2)
	}
}
