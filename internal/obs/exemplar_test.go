package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExemplarCaptureAndReplacement(t *testing.T) {
	h := newHistogram([]float64{1e-3, 1})
	h.EnableExemplars(time.Hour)

	// First observation in a bucket always qualifies (threshold 0).
	if !h.ExemplarQualifies(100 * time.Microsecond) {
		t.Fatal("first observation should qualify")
	}
	h.RecordExemplar(100*time.Microsecond, "d-1", "t-1")

	// A smaller observation in the same bucket does not displace it…
	if h.ExemplarQualifies(50 * time.Microsecond) {
		t.Error("smaller observation should not qualify against a fresh larger exemplar")
	}
	// …an equal or larger one does.
	if !h.ExemplarQualifies(100 * time.Microsecond) {
		t.Error("equal observation should refresh the slot")
	}
	if !h.ExemplarQualifies(500 * time.Microsecond) {
		t.Error("larger observation should qualify")
	}
	h.RecordExemplar(500*time.Microsecond, "d-2", "")

	// A different bucket has its own slot.
	if !h.ExemplarQualifies(2 * time.Second) {
		t.Error("first observation of the +Inf bucket should qualify")
	}
	h.RecordExemplar(2*time.Second, "d-3", "t-3")

	got := h.Exemplars()
	if len(got) != 2 {
		t.Fatalf("want 2 exemplars, got %d: %+v", len(got), got)
	}
	if got[0].DecisionID != "d-2" || got[0].Bucket != 0 {
		t.Errorf("bucket 0 exemplar = %+v, want d-2", got[0])
	}
	if got[1].DecisionID != "d-3" || got[1].Bucket != 2 || got[1].Le != -1 {
		t.Errorf("+Inf exemplar = %+v, want d-3 with Le -1", got[1])
	}

	slow := h.SlowestExemplars(1)
	if len(slow) != 1 || slow[0].DecisionID != "d-3" {
		t.Errorf("SlowestExemplars(1) = %+v, want d-3", slow)
	}
}

func TestExemplarStalenessEviction(t *testing.T) {
	h := newHistogram([]float64{1})
	h.EnableExemplars(10 * time.Millisecond)
	h.RecordExemplar(500*time.Millisecond, "d-old", "")
	if h.ExemplarQualifies(1 * time.Millisecond) {
		t.Fatal("fresh larger exemplar should block a smaller observation")
	}
	time.Sleep(20 * time.Millisecond)
	// Past the recency window the slot opens to ANY observation, so the
	// exemplars describe recent traffic.
	if !h.ExemplarQualifies(1 * time.Millisecond) {
		t.Fatal("stale exemplar should be evictable by any observation")
	}
	h.RecordExemplar(1*time.Millisecond, "d-new", "")
	got := h.Exemplars()
	if len(got) != 1 || got[0].DecisionID != "d-new" {
		t.Fatalf("want d-new after staleness eviction, got %+v", got)
	}
}

func TestExemplarDisabledNilSafe(t *testing.T) {
	h := newHistogram(nil)
	if h.ExemplarQualifies(time.Second) {
		t.Error("disabled histogram should never qualify")
	}
	h.RecordExemplar(time.Second, "d", "") // must not panic
	if h.Exemplars() != nil {
		t.Error("disabled histogram should return nil exemplars")
	}
	if h.ExemplarsEnabled() {
		t.Error("ExemplarsEnabled on a plain histogram")
	}
}

func TestExemplarConcurrent(t *testing.T) {
	h := newHistogram(DefBuckets)
	h.EnableExemplars(time.Hour)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				d := time.Duration(i%977) * time.Microsecond
				h.Observe(d)
				if h.ExemplarQualifies(d) {
					h.RecordExemplar(d, "d-x", "t-x")
				}
				_ = h.Exemplars()
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8*2000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, e := range h.Exemplars() {
		if e.DecisionID != "d-x" {
			t.Fatalf("corrupted exemplar %+v", e)
		}
	}
}

func TestExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("x_seconds", "", "help", []float64{1e-3, 1})
	h.EnableExemplars(0)
	h.Observe(2 * time.Millisecond)
	h.RecordExemplar(2*time.Millisecond, "d-42", "abcd")
	var sb strings.Builder
	WritePrometheus(&sb, reg)
	out := sb.String()
	if !strings.Contains(out, `x_seconds_bucket{le="1"} 1 # {decision_id="d-42",trace_id="abcd"} 0.002`) {
		t.Fatalf("exposition missing exemplar annotation:\n%s", out)
	}
	if strings.Contains(out, `le="0.001"} 0 #`) {
		t.Fatalf("empty bucket must not carry an exemplar:\n%s", out)
	}
}

func TestObserveValueAndQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 10; i++ {
		h.Observe(time.Second) // bucket 0
	}
	for i := 0; i < 10; i++ {
		h.Observe(4 * time.Second) // bucket 2
	}
	if h.Count() != 20 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum().Seconds(); got < 49.9 || got > 50.1 {
		t.Fatalf("sum = %g, want 50", got)
	}
	// p50 falls at the boundary of the first bucket.
	if q := h.Quantile(0.5); q < 0.9 || q > 1.1 {
		t.Errorf("p50 = %g, want ~1", q)
	}
	if q := h.Quantile(0.99); q < 2 || q > 4 {
		t.Errorf("p99 = %g, want within (2,4]", q)
	}
	h.Observe(100 * time.Second) // +Inf bucket
	if q := h.Quantile(1); q != 8 {
		t.Errorf("p100 with +Inf tail = %g, want largest finite bound 8", q)
	}
	var empty Histogram
	if q := (&empty).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
}
