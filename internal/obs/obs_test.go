package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("x_total", "", "help"); again != c {
		t.Fatal("re-registration returned a new counter")
	}
	g := r.Gauge("inflight", "", "help")
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.Set(7)
	if r.GaugeValue("inflight", "") != 7 {
		t.Fatal("GaugeValue")
	}
	if r.CounterValue("x_total", "") != 5 || r.CounterValue("missing", "") != 0 {
		t.Fatal("CounterValue")
	}
}

func TestLabelsAndSums(t *testing.T) {
	r := NewRegistry()
	r.Counter("d_total", Label("reason", "rbac"), "").Add(3)
	r.Counter("d_total", Label("reason", "temporal"), "").Add(4)
	if r.SumCounters("d_total") != 7 {
		t.Fatalf("sum = %d", r.SumCounters("d_total"))
	}
	if got := Label("k", `a"b\c`); got != `k="a\"b\\c"` {
		t.Fatalf("escaped label = %s", got)
	}
	if got := Labels(Label("a", "1"), Label("b", "2")); got != `a="1",b="2"` {
		t.Fatalf("labels = %s", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", "", []float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond) // first bucket
	h.Observe(5 * time.Millisecond)   // second bucket
	h.Observe(time.Second)            // +Inf
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	want := 500*time.Microsecond + 5*time.Millisecond + time.Second
	if h.Sum() != want {
		t.Fatalf("sum = %v", h.Sum())
	}
	if r.HistogramCount("lat_seconds", "") != 3 {
		t.Fatal("HistogramCount")
	}

	var b strings.Builder
	WritePrometheus(&b, r)
	out := b.String()
	for _, line := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.001"} 1`,
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("stac_reqs_total", Label("type", "access"), "requests").Add(2)
	r.Gauge("stac_inflight", "", "in-flight").Set(1)
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, line := range []string{
		"# HELP stac_reqs_total requests",
		"# TYPE stac_reqs_total counter",
		`stac_reqs_total{type="access"} 2`,
		"# TYPE stac_inflight gauge",
		"stac_inflight 1",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestWriteTableSkipsZeros(t *testing.T) {
	r := NewRegistry()
	r.Counter("zero_total", "", "")
	r.Counter("some_total", "", "").Add(9)
	r.Histogram("h_seconds", "", "", nil).Observe(time.Millisecond)
	var b strings.Builder
	WriteTable(&b, r)
	out := b.String()
	if strings.Contains(out, "zero_total") {
		t.Fatalf("zero-valued metric rendered:\n%s", out)
	}
	if !strings.Contains(out, "some_total") || !strings.Contains(out, "h_seconds") {
		t.Fatalf("table missing rows:\n%s", out)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc_total", "", "")
			h := r.Histogram("conc_seconds", "", "", nil)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.CounterValue("conc_total", "") != 8000 {
		t.Fatalf("counter = %d", r.CounterValue("conc_total", ""))
	}
	if r.HistogramCount("conc_seconds", "") != 8000 {
		t.Fatalf("histogram = %d", r.HistogramCount("conc_seconds", ""))
	}
}

func TestHistogramKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "", "")
	r.Gauge("m", "", "")
}

func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", Label("path", "a\"b\\c\nd"), "line one\nline two \\ backslash").Inc()
	var b strings.Builder
	WritePrometheus(&b, r)
	out := b.String()
	// HELP text escapes backslash and newline (quotes stay literal).
	if !strings.Contains(out, `# HELP esc_total line one\nline two \\ backslash`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	// Label values additionally escape the double quote.
	if !strings.Contains(out, `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
	// The exposition must stay one-directive-per-line: no raw newline
	// may survive inside a HELP or sample line.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "line two") || strings.HasPrefix(line, "d\"}") {
			t.Fatalf("raw newline leaked into exposition:\n%s", out)
		}
	}
}

func TestHistogramConcurrentObserveAndRender(t *testing.T) {
	// Observations race against exposition renders; -race must stay
	// quiet and the final count must not lose updates.
	r := NewRegistry()
	h := r.Histogram("race_seconds", "", "", []float64{0.001, 0.01, 0.1})
	var wg sync.WaitGroup
	const workers, perWorker = 8, 2000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				h.Observe(time.Duration(i*j%3000) * time.Microsecond)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			WritePrometheus(&b, r)
			if !strings.Contains(b.String(), "race_seconds_count") {
				t.Error("render lost the histogram")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}
