package telemetry

import (
	"errors"
	"sync"
	"testing"
)

func TestTracerDisabled(t *testing.T) {
	tr := NewTracer(0, 8)
	for i := 0; i < 100; i++ {
		if tr.Start() != nil {
			t.Fatal("disabled tracer must never sample")
		}
	}
	if tr.Sampled() != 0 {
		t.Errorf("sampled = %d", tr.Sampled())
	}
}

func TestTracerSamplingRate(t *testing.T) {
	tr := NewTracer(10, 64)
	sampled := 0
	for i := 0; i < 1000; i++ {
		if b := tr.Start(); b != nil {
			sampled++
			b.Finish("output:1", true, false, nil)
		}
	}
	if sampled != 100 {
		t.Errorf("sampled %d of 1000, want exactly 100 at 1-in-10", sampled)
	}
	if tr.Sampled() != 100 {
		t.Errorf("Sampled() = %d", tr.Sampled())
	}
}

func TestTracerSetSampling(t *testing.T) {
	tr := NewTracer(0, 8)
	tr.SetSampling(1)
	if tr.SampleEvery() != 1 {
		t.Errorf("SampleEvery = %d", tr.SampleEvery())
	}
	if tr.Start() == nil {
		t.Error("1-in-1 sampling must sample every packet")
	}
	tr.SetSampling(-5) // clamps to disabled
	if tr.SampleEvery() != 0 || tr.Start() != nil {
		t.Error("negative rate must disable sampling")
	}
}

func TestTraceBuilderStages(t *testing.T) {
	tr := NewTracer(1, 8)
	b := tr.Start()
	if b == nil {
		t.Fatal("expected sample")
	}
	b.SetKey("ip_src=10.0.0.1")
	b.Begin("microflow")
	b.End(false)
	b.Begin("gigaflow")
	b.End(true)
	b.Note("ltm-table", 2, 5, 7)
	b.Finish("output:4", true, false, nil)

	got := tr.Recent(0)
	if len(got) != 1 {
		t.Fatalf("recent = %d traces", len(got))
	}
	trace := got[0]
	if trace.Key != "ip_src=10.0.0.1" || !trace.CacheHit {
		t.Errorf("trace = %+v", trace)
	}
	if trace.Seq != 1 {
		t.Errorf("seq = %d", trace.Seq)
	}
	if len(trace.Stages) != 3 {
		t.Fatalf("stages = %+v", trace.Stages)
	}
	if trace.Stages[0].Name != "microflow" || trace.Stages[0].Hit {
		t.Errorf("stage 0 = %+v", trace.Stages[0])
	}
	if trace.Stages[0].Table != -1 || trace.Stages[0].Tag != -1 {
		t.Errorf("timed stage must carry -1 table/tag markers: %+v", trace.Stages[0])
	}
	if trace.Stages[1].Name != "gigaflow" || !trace.Stages[1].Hit {
		t.Errorf("stage 1 = %+v", trace.Stages[1])
	}
	s := trace.Stages[2]
	if s.Name != "ltm-table" || s.Table != 2 || s.Tag != 5 || s.Priority != 7 {
		t.Errorf("stage 2 = %+v", s)
	}
	if trace.TotalNs < 0 {
		t.Errorf("total = %d", trace.TotalNs)
	}
}

func TestTraceFinishError(t *testing.T) {
	tr := NewTracer(1, 4)
	b := tr.Start()
	b.Finish("", false, false, errors.New("install failed"))
	if got := tr.Recent(1)[0].Err; got != "install failed" {
		t.Errorf("err = %q", got)
	}
}

func TestRingWraparoundAndOrdering(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		b := tr.Start()
		b.SetKey(string(rune('a' + i)))
		b.Finish("", false, false, nil)
	}
	got := tr.Recent(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	// Newest first: j, i, h, g with ascending seq in reverse.
	wantKeys := []string{"j", "i", "h", "g"}
	for i, trc := range got {
		if trc.Key != wantKeys[i] {
			t.Errorf("recent[%d].Key = %q, want %q", i, trc.Key, wantKeys[i])
		}
	}
	if got[0].Seq != 10 || got[3].Seq != 7 {
		t.Errorf("seqs = %d..%d, want 10..7", got[0].Seq, got[3].Seq)
	}
	// Capped fetch.
	if n := len(tr.Recent(2)); n != 2 {
		t.Errorf("Recent(2) = %d traces", n)
	}
}

// TestTracerConcurrent exercises sampling and recording from many
// goroutines; run with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(3, 32)
	var wg sync.WaitGroup
	const workers = 8
	const iters = 900
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if b := tr.Start(); b != nil {
					b.Begin("gigaflow")
					b.End(true)
					b.Finish("output:1", true, false, nil)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Recent(8)
			tr.SampleEvery()
		}
	}()
	wg.Wait()
	<-done
	if got, want := tr.Sampled(), uint64(workers*iters/3); got != want {
		t.Errorf("sampled = %d, want %d", got, want)
	}
	// Sequence numbers in the ring must be unique.
	seen := map[uint64]bool{}
	for _, trc := range tr.Recent(0) {
		if seen[trc.Seq] {
			t.Errorf("duplicate seq %d", trc.Seq)
		}
		seen[trc.Seq] = true
	}
}
