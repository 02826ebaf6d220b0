package vlp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// CoarseCond models §4.2's compromise when the ISA cannot carry the full
// hash function number: "the compiler could use the bits to indicate
// roughly what the hash function number is, and the hardware can refine
// this number by using run-time information. For example, if only 1 bit
// has been set aside, and there are 8 hash functions, the compiler could
// set the bit to 0 to indicate that the hash function number is between 1
// and 4, and set it to 1 to indicate that the hash function number is
// between 5 and 8."
//
// Buckets partition a tracked set of hash functions; the profile's exact
// per-branch length is coarsened to its bucket index (the ISA hint), and a
// per-branch-slot score table picks the concrete length within the bucket
// at run time, using the same recent-badness scoring as DynCond.
type CoarseCond struct {
	inner   *Cond
	buckets [][]int
	hint    map[arch.Addr]int // static branch -> bucket index (the ISA bits)
	defHint int
	scores  []*counter.Array // per bucket-position score tables
	slots   uint64
	name    string
}

// DefaultBuckets groups the §3.1 reduced hash-function set {1,2,4,8,16,32}
// into three two-length buckets, i.e. a 2-bit ISA hint refined by one
// hardware-chosen bit.
func DefaultBuckets() [][]int {
	return [][]int{{1, 2}, {4, 8}, {16, 32}}
}

// NewCoarseCond builds the coarse-hint predictor over a counter-table
// budget. profile maps static branches to exact lengths (from the §3.5
// heuristic); each is coarsened to the bucket containing the nearest
// tracked length. 2^a is the number of per-branch score slots.
func NewCoarseCond(budgetBytes int, buckets [][]int, profile map[arch.Addr]int, defaultLen int, a uint) (*CoarseCond, error) {
	if buckets == nil {
		buckets = DefaultBuckets()
	}
	if len(buckets) == 0 {
		return nil, fmt.Errorf("vlp: no buckets")
	}
	width := len(buckets[0])
	for _, b := range buckets {
		if len(b) != width || len(b) == 0 {
			return nil, fmt.Errorf("vlp: buckets must be equal-sized and non-empty")
		}
	}
	if a < 1 || a > 30 {
		return nil, fmt.Errorf("vlp: score slot width %d out of range", a)
	}
	c := &CoarseCond{
		buckets: buckets,
		hint:    make(map[arch.Addr]int, len(profile)),
		slots:   1<<a - 1,
	}
	inner, err := NewCond(budgetBytes, coarseSelector{c}, Options{})
	if err != nil {
		return nil, err
	}
	c.inner = inner
	for _, bkt := range buckets {
		for _, l := range bkt {
			if l < 1 || l > inner.hs.MaxPath() {
				return nil, fmt.Errorf("vlp: bucket length %d out of range", l)
			}
		}
	}
	for i := 0; i < width; i++ {
		c.scores = append(c.scores, counter.NewArray(1<<a, 4, 0))
	}
	for pc, l := range profile {
		c.hint[pc] = c.bucketOf(l)
	}
	c.defHint = c.bucketOf(defaultLen)
	c.name = fmt.Sprintf("pathcond[coarse(%d buckets)]-%dB", len(buckets), inner.SizeBytes())
	return c, nil
}

// bucketOf returns the bucket whose lengths are nearest the exact length.
func (c *CoarseCond) bucketOf(l int) int {
	best, bestDist := 0, 1<<30
	for i, bkt := range c.buckets {
		for _, bl := range bkt {
			d := bl - l
			if d < 0 {
				d = -d
			}
			if d < bestDist {
				best, bestDist = i, d
			}
		}
	}
	return best
}

// coarseSelector resolves a branch's length: ISA hint picks the bucket,
// the score tables pick the position within it.
type coarseSelector struct{ c *CoarseCond }

func (s coarseSelector) Length(pc arch.Addr) int { return s.c.length(pc) }
func (s coarseSelector) Name() string            { return "coarse" }

func (c *CoarseCond) slot(pc arch.Addr) int { return int(bpred.PCBits(pc) & c.slots) }

func (c *CoarseCond) bucket(pc arch.Addr) []int {
	if h, ok := c.hint[pc]; ok {
		return c.buckets[h]
	}
	return c.buckets[c.defHint]
}

func (c *CoarseCond) length(pc arch.Addr) int {
	bkt := c.bucket(pc)
	slot := c.slot(pc)
	best, bestVal := 0, int(c.scores[0].Value(slot))
	for i := 1; i < len(bkt); i++ {
		if v := int(c.scores[i].Value(slot)); v < bestVal {
			best, bestVal = i, v
		}
	}
	return bkt[best]
}

// Name implements bpred.CondPredictor.
func (c *CoarseCond) Name() string { return c.name }

// Release implements bpred.Releaser.
func (c *CoarseCond) Release() {
	c.inner.Release()
	for _, a := range c.scores {
		a.Release()
	}
}

// SizeBytes implements bpred.CondPredictor: the shared table plus the
// refinement score storage.
func (c *CoarseCond) SizeBytes() int {
	total := c.inner.SizeBytes()
	for _, s := range c.scores {
		total += s.SizeBytes()
	}
	return total
}

// Predict implements bpred.CondPredictor.
func (c *CoarseCond) Predict(pc arch.Addr) bool { return c.inner.Predict(pc) }

// Update implements bpred.CondPredictor: every length in the branch's
// bucket is scored and trains its index, exactly as DynCond does over its
// tracked set — the hardware half of the §4.2 split.
func (c *CoarseCond) Update(r trace.Record) {
	if r.Kind == arch.Cond {
		bkt := c.bucket(r.PC)
		slot := c.slot(r.PC)
		for i, l := range bkt {
			if c.inner.PredictAt(l) == r.Taken {
				c.scores[i].Dec(slot)
			} else {
				v := int(c.scores[i].Value(slot)) + dynPenalty
				if v > 255 {
					v = 255
				}
				c.scores[i].Set(slot, uint8(v))
			}
		}
		for _, l := range bkt {
			c.inner.TrainAt(l, r.Taken)
		}
	}
	c.inner.ObservePath(r)
}
