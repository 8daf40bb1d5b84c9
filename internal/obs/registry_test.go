package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("trials_total", "Trials run.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same series.
	if got := reg.Counter("trials_total", "Trials run.").Value(); got != 5 {
		t.Fatalf("re-registered counter = %d, want 5", got)
	}

	g := reg.Gauge("phase", "Current phase.")
	g.Set(2)
	g.Add(0.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}

	vec := reg.CounterVec("retrans_total", "Retransmissions.", "dir")
	vec.With("c2s").Add(3)
	vec.With("s2c").Add(7)
	if got := vec.With("c2s").Value(); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("load_seconds", "Page load time.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.65) > 1e-9 {
		t.Fatalf("sum = %g, want 102.65", h.Sum())
	}
	snap := reg.Snapshot()
	s := snap.Families[0].Series[0]
	// 0.05 and 0.1 land in le=0.1 (le is ≤); 0.5 in le=1; 2 in le=10; 100
	// only in +Inf.
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if s.BucketCounts[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (buckets %v)", i, s.BucketCounts[i], w, s.BucketCounts)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	g := reg.Gauge("y", "")
	h := reg.Histogram("z", "", nil)
	cv := reg.CounterVec("cv", "", "l")
	gv := reg.GaugeVec("gv", "", "l")
	hv := reg.HistogramVec("hv", "", nil, "l")
	// None of these may panic; values read back as zero.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(2)
	cv.With("a").Inc()
	gv.With("a").Set(1)
	hv.With("a").Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments reported non-zero values")
	}
	if snap := reg.Snapshot(); len(snap.Families) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaConflictsPanic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "")
	for name, fn := range map[string]func(){
		"kind":       func() { reg.Gauge("a_total", "") },
		"labels":     func() { reg.CounterVec("a_total", "", "dir") },
		"bad-name":   func() { reg.Counter("has-dash", "") },
		"bad-label":  func() { reg.CounterVec("b_total", "", "bad-label") },
		"arity":      func() { reg.CounterVec("c_total", "", "dir").With() },
		"decrement":  func() { reg.Counter("d_total", "").Add(-1) },
		"unsorted-b": func() { reg.Histogram("e", "", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		// Register in one order, populate in another: the snapshot must
		// sort both families and series.
		v := reg.CounterVec("zz_total", "", "k")
		v.With("b").Add(2)
		v.With("a").Add(1)
		reg.Gauge("aa", "first").Set(9)
		reg.Histogram("mm_seconds", "", []float64{1, 2}).Observe(1.5)
		return reg
	}
	var out [2]string
	for i := range out {
		var sb strings.Builder
		if err := build().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		out[i] = sb.String()
	}
	if out[0] != out[1] {
		t.Fatalf("non-deterministic exposition:\n%s\nvs\n%s", out[0], out[1])
	}
	if !strings.HasPrefix(out[0], "# HELP aa first\n# TYPE aa gauge\n") {
		t.Fatalf("families not sorted:\n%s", out[0])
	}
	ai := strings.Index(out[0], `zz_total{k="a"}`)
	bi := strings.Index(out[0], `zz_total{k="b"}`)
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("series not sorted by label value:\n%s", out[0])
	}
}

// TestRegistryConcurrency hammers every instrument kind, Vec lookups
// and snapshots from many goroutines. Run under -race (CI
// does), this is the registry's thread-safety contract.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("ops_total", "", "worker")
	g := reg.Gauge("level", "")
	hv := reg.HistogramVec("lat_seconds", "", DefBuckets, "worker")

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4) // contend on shared series too
			c := cv.With(label)
			h := hv.With(label)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(0.25)
				g.Add(-0.25)
				h.Observe(float64(i%100) / 100)
				if i%500 == 0 {
					// Concurrent scrape: snapshot + both exporters.
					snap := reg.Snapshot()
					var sb strings.Builder
					if err := snap.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
					if _, err := LintExposition([]byte(sb.String())); err != nil {
						t.Errorf("mid-flight exposition rejected: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var total int64
	for _, s := range reg.Snapshot().Families {
		if s.Name != "ops_total" {
			continue
		}
		for _, series := range s.Series {
			total += int64(series.Value)
		}
	}
	if total != workers*iters {
		t.Fatalf("lost updates: ops_total = %d, want %d", total, workers*iters)
	}
	for _, f := range reg.Snapshot().Families {
		if f.Name != "lat_seconds" {
			continue
		}
		var count uint64
		for _, s := range f.Series {
			count += s.Count
		}
		if count != workers*iters {
			t.Fatalf("lost observations: %d, want %d", count, workers*iters)
		}
	}
}
