package disk

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/units"
)

// CurvePoint is one (request size, effective bandwidth) sample.
type CurvePoint struct {
	ReqSize   units.ByteSize
	Bandwidth units.Rate
}

// Curve is an empirical effective-bandwidth lookup table, the artifact
// the paper builds once per data center ("one-time disk profiling",
// Section VI-1) and that the analytical model consumes. Between samples
// the curve interpolates log-linearly in request size, which matches how
// these curves behave physically; outside the sampled range it clamps to
// the end points.
type Curve struct {
	points []CurvePoint // sorted by ReqSize, strictly increasing
	// logs holds each point's log request size and log bandwidth, the
	// interpolation's end-point terms, computed once instead of at every
	// Lookup (math.Log is deterministic, so the results are the same).
	logs []logPoint
}

// logPoint is a CurvePoint in log space.
type logPoint struct {
	size, bw float64
}

// NewCurve builds a curve from samples. Samples are sorted; duplicate
// request sizes are rejected.
func NewCurve(points []CurvePoint) (*Curve, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("disk: curve needs at least one point")
	}
	ps := make([]CurvePoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].ReqSize < ps[j].ReqSize })
	for i, p := range ps {
		if p.ReqSize <= 0 {
			return nil, fmt.Errorf("disk: curve point %d has non-positive request size", i)
		}
		if p.Bandwidth <= 0 || math.IsNaN(float64(p.Bandwidth)) || math.IsInf(float64(p.Bandwidth), 0) {
			return nil, fmt.Errorf("disk: curve point %d has non-positive or non-finite bandwidth", i)
		}
		if i > 0 && ps[i-1].ReqSize == p.ReqSize {
			return nil, fmt.Errorf("disk: duplicate request size %v", p.ReqSize)
		}
	}
	logs := make([]logPoint, len(ps))
	for i, p := range ps {
		logs[i] = logPoint{size: math.Log(float64(p.ReqSize)), bw: math.Log(float64(p.Bandwidth))}
	}
	return &Curve{points: ps, logs: logs}, nil
}

// MustCurve is NewCurve for static tables; it panics on error.
func MustCurve(points []CurvePoint) *Curve {
	c, err := NewCurve(points)
	if err != nil {
		panic(err)
	}
	return c
}

// Points returns a copy of the sample table.
func (c *Curve) Points() []CurvePoint {
	out := make([]CurvePoint, len(c.points))
	copy(out, c.points)
	return out
}

// Lookup returns the effective bandwidth at the given request size,
// interpolating log-linearly between samples.
func (c *Curve) Lookup(reqSize units.ByteSize) units.Rate {
	if reqSize <= 0 {
		return 0
	}
	ps := c.points
	if reqSize <= ps[0].ReqSize {
		return ps[0].Bandwidth
	}
	last := ps[len(ps)-1]
	if reqSize >= last.ReqSize {
		return last.Bandwidth
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].ReqSize >= reqSize })
	if ps[i].ReqSize == reqSize {
		return ps[i].Bandwidth
	}
	lo, hi := c.logs[i-1], c.logs[i]
	// log-linear: interpolate log(BW) against log(size).
	x := (math.Log(float64(reqSize)) - lo.size) / (hi.size - lo.size)
	lb := lo.bw + x*(hi.bw-lo.bw)
	return units.Rate(math.Exp(lb))
}

// String renders the table in fio-report style.
func (c *Curve) String() string {
	var b strings.Builder
	for i, p := range c.points {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v→%v", p.ReqSize, p.Bandwidth)
	}
	return b.String()
}

// DefaultSweepSizes is the request-size grid used for profiling, matching
// the paper's Fig. 5 x-axis (4 KB through the 128 MB HDFS block size).
func DefaultSweepSizes() []units.ByteSize {
	return []units.ByteSize{
		4 * units.KB, 8 * units.KB, 16 * units.KB, 30 * units.KB,
		64 * units.KB, 128 * units.KB, 256 * units.KB, 512 * units.KB,
		units.MB, 4 * units.MB, 16 * units.MB, 64 * units.MB, 128 * units.MB,
	}
}

// ProfileRead builds a read-bandwidth curve by sampling the device over
// the given request sizes (DefaultSweepSizes when nil). This is the
// "one-time disk profiling per data center" step of Section VI-1.
func ProfileRead(d Device, sizes []units.ByteSize) *Curve {
	return profile(sizes, d.ReadBandwidth)
}

// ProfileWrite builds the write-path curve.
func ProfileWrite(d Device, sizes []units.ByteSize) *Curve {
	return profile(sizes, d.WriteBandwidth)
}

func profile(sizes []units.ByteSize, f func(units.ByteSize) units.Rate) *Curve {
	if len(sizes) == 0 {
		sizes = DefaultSweepSizes()
	}
	pts := make([]CurvePoint, 0, len(sizes))
	for _, s := range sizes {
		pts = append(pts, CurvePoint{ReqSize: s, Bandwidth: f(s)})
	}
	return MustCurve(pts)
}
