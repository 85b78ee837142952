package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exact is the quantile an exact sort reports, by the same rank rule.
func exact(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func checkAgainstSort(t *testing.T, name string, vals []int64) {
	t.Helper()
	var h H
	for _, v := range vals {
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want, got := exact(vals, q), h.Quantile(q)
		if err := math.Abs(got-want) / math.Max(want, 1); err > 0.01 {
			t.Errorf("%s q=%v: hist %v, exact %v (rel err %.4f)", name, q, got, want, err)
		}
	}
	if h.Count() != uint64(len(vals)) {
		t.Errorf("%s: count %d, want %d", name, h.Count(), len(vals))
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	random := make([]int64, 50000)
	for i := range random {
		// Log-uniform over 1 ns .. ~1 s, so every magnitude is hit.
		random[i] = int64(math.Exp(r.Float64() * math.Log(1e9)))
	}
	checkAgainstSort(t, "log-uniform", random)

	bimodal := make([]int64, 50000)
	for i := range bimodal {
		if r.Intn(10) == 0 {
			bimodal[i] = 1_500_000 + r.Int63n(200_000) // slow mode, 10 %
		} else {
			bimodal[i] = 9_000 + r.Int63n(500)
		}
	}
	checkAgainstSort(t, "bimodal", bimodal)

	small := []int64{0, 1, 2, 3, 255, 256, 257, 511, 512}
	checkAgainstSort(t, "edges", small)

	var neg H
	neg.Record(-5)
	if neg.Quantile(0.5) != 0 {
		t.Errorf("a negative sample must count as zero, got %v", neg.Quantile(0.5))
	}
}

func TestBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 255, 256, 257, 258, 511, 512, 1 << 20, 1<<20 + 1<<13, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev || b >= nBuckets {
			t.Fatalf("bucketOf(%d) = %d after %d (nBuckets %d)", v, b, prev, nBuckets)
		}
		prev = b
	}
	if bucketOf(255)+1 != bucketOf(256) {
		t.Fatalf("exact and log ranges do not meet: %d, %d", bucketOf(255), bucketOf(256))
	}
}

func TestMerge(t *testing.T) {
	var a, b, all H
	for i := int64(0); i < 1000; i++ {
		a.Record(i * 10)
		all.Record(i * 10)
		b.Record(i * 1000)
		all.Record(i * 1000)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Quantile(0.5) != all.Quantile(0.5) || a.Quantile(0.99) != all.Quantile(0.99) {
		t.Fatalf("merged histogram differs from one recorded whole")
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	h := new(H)
	v := int64(12345)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v += 997 }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}
