package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"time"
)

// The host reference is a fixed task that touches none of the
// repository's code. Its time moves only with the speed of the host, so
// a run that times it between its operations knows how fast the host
// was while it measured, and reports its time metrics at a nominal host
// speed: a time is divided by the host factor (the reference's median
// over its nominal time) and a rate multiplied by it. The host this
// benchmark runs on can change speed by half or more for minutes at a
// time; the raw numbers are printed too.
//
// The reference has two parts, matched to what the workloads do:
//   - compute: a SHA-256 chain, a JSON round trip of a fixed document
//     and a sort, single-threaded in the benchmark process;
//   - crossing: one-byte round trips through pipes to an echo child
//     process, which wake a process on every message as an API request
//     does on its way through the router and a replica.
//
// API workloads use both parts, campaign (one process, no messages)
// the compute part only.
const (
	refChain = 4000
	refDocs  = 64
	refTrips = 200
	// refEvery is how often a run times the reference: after the first
	// operation that completes at least this long after the last timing.
	refEvery = 100 * time.Millisecond
	// Nominal reference times: the medians on the host the bounds were
	// measured on (2 vCPUs), in a steady minute.
	refNominalCompute  = 2.2 // ms
	refNominalCrossing = 4.4 // ms
)

type refDoc struct {
	Name   string    `json:"name"`
	Slaves int       `json:"slaves"`
	Stages []float64 `json:"stages"`
	Tags   []string  `json:"tags"`
}

var refInput = func() []refDoc {
	docs := make([]refDoc, refDocs)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range docs {
		d := refDoc{Name: fmt.Sprintf("doc-%03d", i), Slaves: i%17 + 1}
		for j := 0; j < 24; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			d.Stages = append(d.Stages, float64(x%100000)/997)
		}
		d.Tags = []string{"hdd", "ssd", fmt.Sprint(i)}
		docs[i] = d
	}
	return docs
}()

// refSink keeps the reference's results alive.
var refSink int

// refCompute runs the compute part once and returns how long it took.
func refCompute() time.Duration {
	start := time.Now()
	h := sha256.Sum256([]byte("perfbench host reference"))
	for i := 0; i < refChain; i++ {
		h = sha256.Sum256(h[:])
	}
	b, _ := json.Marshal(refInput)
	var back []refDoc
	_ = json.Unmarshal(b, &back)
	keys := make([]float64, 0, refDocs*24)
	for _, d := range back {
		keys = append(keys, d.Stages...)
	}
	sort.Float64s(keys)
	refSink += int(h[0]) + len(b) + int(keys[len(keys)/2])
	return time.Since(start)
}

// echoFlag makes the benchmark binary the reference's echo child.
const echoFlag = "-echo"

// runEcho copies standard input to standard output until input ends.
func runEcho() { io.Copy(os.Stdout, os.Stdin) }

// refMeter times the reference between a run's operations.
type refMeter struct {
	nominal float64 // ms
	echo    *exec.Cmd
	in      io.WriteCloser
	out     io.ReadCloser
	last    time.Time
	samples []float64     // reference times in ms
	spent   time.Duration // host time spent on the reference
}

// newRefMeter returns a meter of the compute part, and of the crossing
// part too if crossing is set; it then starts the echo child, which
// close stops.
func newRefMeter(crossing bool) (*refMeter, error) {
	m := &refMeter{nominal: refNominalCompute}
	if !crossing {
		return m, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	m.echo = exec.Command(self, echoFlag)
	if m.in, err = m.echo.StdinPipe(); err != nil {
		return nil, err
	}
	if m.out, err = m.echo.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := m.echo.Start(); err != nil {
		return nil, err
	}
	m.nominal += refNominalCrossing
	return m, nil
}

// close stops the echo child and waits for it.
func (m *refMeter) close() error {
	if m.echo == nil {
		return nil
	}
	m.in.Close()
	return m.echo.Wait()
}

// tick times the reference if refEvery has passed since the last time.
func (m *refMeter) tick() error {
	if !m.last.IsZero() && time.Since(m.last) < refEvery {
		return nil
	}
	return m.now()
}

// now times the reference once.
func (m *refMeter) now() error {
	d := refCompute()
	if m.echo != nil {
		start := time.Now()
		b := []byte{1}
		for i := 0; i < refTrips; i++ {
			if _, err := m.in.Write(b); err != nil {
				return fmt.Errorf("host reference echo: %w", err)
			}
			if _, err := io.ReadFull(m.out, b); err != nil {
				return fmt.Errorf("host reference echo: %w", err)
			}
		}
		d += time.Since(start)
	}
	m.samples = append(m.samples, float64(d)/float64(time.Millisecond))
	m.spent += d
	m.last = time.Now()
	return nil
}

// factor is how much slower than nominal the host ran: the median
// reference time over the nominal one.
func (m *refMeter) factor() float64 { return median(m.samples) / m.nominal }

// scale converts a run's raw end-to-end values to the nominal host
// speed: times are divided by the host factor, the rate multiplied by
// it; peak RSS and model error are not times and stay as measured. It
// prints the reference and the raw values.
func (m *refMeter) scale(raw map[string]float64) map[string]float64 {
	f := m.factor()
	s := sortedCopy(m.samples)
	fmt.Printf("# host reference: median %.4f ms over %d timings (p10 %.4f, p90 %.4f), nominal %.1f ms: host factor %.4f\n",
		median(s), len(s), nearestRank(s, 0.1), nearestRank(s, 0.9), m.nominal, f)
	fmt.Printf("# raw host-time values: setup_s %.4f, latency_p50_ms %.4f, latency_tail_ms %.4f, throughput_per_s %.2f\n",
		raw["setup_s"], raw["latency_p50_ms"], raw["latency_tail_ms"], raw["throughput_per_s"])
	return hostScaled(raw, f)
}

// hostScaled divides the time metrics in raw by f and multiplies the
// rate by it.
func hostScaled(raw map[string]float64, f float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range raw {
		switch k {
		case "setup_s", "latency_p50_ms", "latency_tail_ms":
			v /= f
		case "throughput_per_s":
			v *= f
		}
		out[k] = v
	}
	return out
}
