// Package hist is the benchmark's latency histogram: log-linear buckets,
// 128 per power of two, so a reported quantile is within 0.4 % of the
// exact one (internal/obs buckets by power of two — 2x resolution — and
// must not feed an end-to-end metric). Record never allocates.
//
// An H is not safe for concurrent use: every client goroutine records
// into its own and the rig merges them after the clients stop.
package hist

import "math/bits"

const (
	subBits = 7
	sub     = 1 << subBits // sub-buckets per power of two
	// Values below 2*sub get a bucket each; above, bucket e*sub+m holds
	// the values whose top subBits+1 bits are m (sub <= m < 2*sub) with
	// e bits below them. int64 tops out at 63 significant bits.
	nBuckets = (64 - subBits) * sub
)

// H counts non-negative int64 samples (nanoseconds, by convention).
// The zero value is ready to use.
type H struct {
	counts [nBuckets]uint64
	n      uint64
}

func bucketOf(v int64) int {
	if v < 2*sub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (subBits + 1)
	return e*sub + int(v>>uint(e))
}

// bucketMid is the middle of the bucket's value range, the estimate
// Quantile reports.
func bucketMid(i int) float64 {
	if i < 2*sub {
		return float64(i)
	}
	e := i/sub - 1
	lo := int64(i-e*sub) << uint(e)
	return float64(lo) + float64((int64(1)<<uint(e))-1)/2
}

// Record adds one sample; negative samples count as zero.
func (h *H) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// Count reports how many samples were recorded.
func (h *H) Count() uint64 { return h.n }

// Merge adds o's samples to h.
func (h *H) Merge(o *H) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the middle of the
// bucket holding the ceil(q*n)-th smallest sample — the same rank an
// exact sort would pick. It returns 0 for an empty histogram.
func (h *H) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(nBuckets - 1)
}
