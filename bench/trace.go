package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// spanKind names a span: one per layer boundary the benchmark times.
type spanKind uint8

const (
	spSubmit       spanKind = iota // service: one SubmitFrameBatch call (root)
	spUpdate                       // one UpdateRules / apply+Revalidate
	spReplay                       // replay drivers: one whole batch (root)
	spRSS                          // packet.RSSTuple + SymHash over the batch
	spDecode                       // packet.Decode over the batch
	spVSwitch                      // VSwitch.ProcessBatchMeta
	spNatPatch                     // packet.PatchFrameNAT over the batch
	spUfLookup                     // shadow: microflow lookups (+ conntrack guard)
	spCtTrack                      // shadow: conntrack.Track
	spMainLookup                   // shadow: Gigaflow LTM / Megaflow lookups
	spTraverse                     // shadow: pipeline traversals of the misses
	spMainInsert                   // shadow: partition + install of the misses
	spUfInsert                     // shadow: microflow memoisation
	spRevalidate                   // shadow: main-cache Revalidate
	spParkScan                     // park replay: ProcessBatchPark
	spParkComplete                 // park replay: second chance + CompleteMiss
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"service.submit", "service.update", "replay.batch", "packet.rss", "packet.decode",
	"vswitch.batch", "packet.natpatch", "microflow.lookup", "conntrack.track",
	"maincache.lookup", "pipeline.traverse", "maincache.insert", "microflow.insert",
	"maincache.revalidate", "upcall.park_scan", "upcall.park_complete",
}

const noParent = -1

// span is one timed interval: what, when (nanoseconds since the tracer's
// base), the span that caused it, and the batch it belongs to.
type span struct {
	kind       spanKind
	parent     int32
	batch      int32
	start, end int64
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	base  time.Time
	spans []span
	batch int32 // current batch id, advanced by the driver
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// The recording methods are nil-safe: a nil tracer (tracing off, or a
// replay's warm-up) costs the same clock reads and records nothing.

// open starts a root span at time at and returns its index.
func (t *tracer) open(kind spanKind, at time.Time) int32 {
	if t == nil {
		return noParent
	}
	s := int64(at.Sub(t.base))
	t.spans = append(t.spans, span{kind, noParent, t.batch, s, s})
	return int32(len(t.spans) - 1)
}

// stage reads the clock once, records a span from `from` to now under
// parent, and returns now — the next stage's start.
func (t *tracer) stage(kind spanKind, parent int32, from time.Time) time.Time {
	now := time.Now()
	if t != nil {
		t.spans = append(t.spans, span{kind, parent, t.batch, int64(from.Sub(t.base)), int64(now.Sub(t.base))})
	}
	return now
}

// close ends the root span idx at time at and moves to the next batch.
func (t *tracer) close(idx int32, at time.Time) {
	if t != nil {
		t.spans[idx].end = int64(at.Sub(t.base))
		t.batch++
	}
}

// kindTotals sums span durations and self times by kind. A span's self
// time is its duration minus the durations of its direct children.
type kindTotals struct {
	total [numSpanKinds]int64
	self  [numSpanKinds]int64
}

func (t *tracer) totals() kindTotals {
	var kt kindTotals
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
		kt.total[s.kind] += d
	}
	for i := range t.spans {
		kt.self[t.spans[i].kind] += self[i]
	}
	return kt
}

// writeTraceFile writes a workload's spans as one compact JSON document:
// a name table, then per section one [name, start_ns, end_ns, parent,
// batch] row per span (parent indexes the section's own rows, -1 = root).
func writeTraceFile(path, workload string, seed int64, e envRecord, sections []*section) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"env\":%s,\n\"names\":[", workload, seed, e.json())
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"batch\"],\n\"sections\":[\n")
	var buf []byte
	for si, sec := range sections {
		fmt.Fprintf(w, "{\"driver\":%q,\"spans\":[\n", sec.name)
		for i := range sec.tr.spans {
			s := &sec.tr.spans[i]
			buf = append(buf[:0], '[')
			for j, v := range [...]int64{int64(s.kind), s.start, s.end, int64(s.parent), int64(s.batch)} {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, v, 10)
			}
			buf = append(buf, ']')
			if i < len(sec.tr.spans)-1 {
				buf = append(buf, ',')
			}
			buf = append(buf, '\n')
			w.Write(buf)
		}
		w.WriteString("]}")
		if si < len(sections)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]}\n")
	return w.Flush()
}
