package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/packet"
	"gigaflow/internal/traffic"
)

func testFrames() [][]byte {
	var a, b flow.Key
	a.Set(flow.FieldEthSrc, 0x02aabbccddee)
	a.Set(flow.FieldEthDst, 0x020102030405)
	a.Set(flow.FieldEthType, packet.EtherTypeIPv4)
	a.Set(flow.FieldIPSrc, 0x0a000001)
	a.Set(flow.FieldIPDst, 0x0a000002)
	a.Set(flow.FieldIPProto, packet.IPProtoTCP)
	a.Set(flow.FieldTpSrc, 1234)
	a.Set(flow.FieldTpDst, 80)
	b = a.With(flow.FieldIPProto, packet.IPProtoUDP).With(flow.FieldTpDst, 53)
	c := a.With(flow.FieldEthType, 0x0806)
	return [][]byte{packet.Encode(a), packet.Encode(b), packet.Encode(c)}
}

// reencode rewrites a capture from the Writer's format (little-endian,
// nanosecond) into the given byte order and timestamp resolution: the
// other forms of classic pcap that producers write and Reader accepts.
func reencode(capture []byte, bo binary.ByteOrder, micros bool) []byte {
	le := binary.LittleEndian
	out := append([]byte(nil), capture...)
	magic := uint32(MagicNanos)
	if micros {
		magic = MagicMicros
	}
	bo.PutUint32(out[0:4], magic)
	bo.PutUint16(out[4:6], le.Uint16(capture[4:6]))
	bo.PutUint16(out[6:8], le.Uint16(capture[6:8]))
	for off := 8; off < fileHeaderLen; off += 4 {
		bo.PutUint32(out[off:], le.Uint32(capture[off:]))
	}
	for off := fileHeaderLen; off < len(out); off += recordHeaderLen + int(le.Uint32(capture[off+8:])) {
		for w := off; w < off+recordHeaderLen; w += 4 {
			bo.PutUint32(out[w:], le.Uint32(capture[w:]))
		}
		if micros {
			bo.PutUint32(out[off+4:], le.Uint32(capture[off+4:])/1000)
		}
	}
	return out
}

func roundTrip(t *testing.T, bo binary.ByteOrder, micros bool) {
	t.Helper()
	frames := testFrames()
	times := []int64{0, 1_500_000_000, 86_400_000_000_123}

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if err := w.WriteRecord(times[i], f, len(f)); err != nil {
			t.Fatal(err)
		}
	}
	if lt := binary.LittleEndian.Uint32(buf.Bytes()[20:24]); lt != LinkTypeEthernet {
		t.Fatalf("link type = %d", lt)
	}

	r, err := NewReader(bytes.NewReader(reencode(buf.Bytes(), bo, micros)))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		wantTs := times[i]
		if !r.Nanosecond() {
			wantTs = wantTs / 1000 * 1000
		}
		if rec.TimeNs != wantTs {
			t.Errorf("record %d: ts = %d, want %d", i, rec.TimeNs, wantTs)
		}
		if !bytes.Equal(rec.Frame, f) {
			t.Errorf("record %d: frame bytes differ", i)
		}
		if rec.OrigLen != len(f) {
			t.Errorf("record %d: orig len = %d, want %d", i, rec.OrigLen, len(f))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestRoundTripLittleEndianNanos(t *testing.T) { roundTrip(t, binary.LittleEndian, false) }

func TestRoundTripBigEndianNanos(t *testing.T) { roundTrip(t, binary.BigEndian, false) }

func TestRoundTripLittleEndianMicros(t *testing.T) { roundTrip(t, binary.LittleEndian, true) }

func TestRoundTripBigEndianMicros(t *testing.T) { roundTrip(t, binary.BigEndian, true) }

func TestReaderRejectsGarbage(t *testing.T) {
	_, err := NewReader(bytes.NewReader(bytes.Repeat([]byte{0x42}, 64)))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	_, err = NewReader(bytes.NewReader([]byte{0xd4, 0xc3}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short header err = %v, want unexpected EOF", err)
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := testFrames()[0]
	if err := w.WriteRecord(0, f, len(f)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

func TestReaderRejectsCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := testFrames()[0]
	if err := w.WriteRecord(0, f, len(f)); err != nil {
		t.Fatal(err)
	}
	// Forge the record's incl_len into an absurd value: the reader must
	// refuse rather than trust it with an allocation.
	binary.LittleEndian.PutUint32(buf.Bytes()[24+8:], 1<<30)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("corrupt incl_len accepted: %v", err)
	}
}

func TestWriterSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat(testFrames()[0], DefaultSnapLen/len(testFrames()[0])+1)
	if err := w.WriteRecord(7, frame, len(frame)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Frame) != DefaultSnapLen {
		t.Fatalf("captured %d bytes, want snaplen %d", len(rec.Frame), DefaultSnapLen)
	}
	if rec.OrigLen != len(frame) {
		t.Fatalf("orig len = %d, want %d", rec.OrigLen, len(frame))
	}
	if !bytes.Equal(rec.Frame, frame[:DefaultSnapLen]) {
		t.Fatal("truncated bytes differ")
	}
}

func TestReaderReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames()
	for i, f := range frames {
		if err := w.WriteRecord(int64(i), f, len(f)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil { // prime the buffer
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1, func() {
		// Remaining frames are no larger than the first? Not
		// guaranteed in general — so just assert the big first frame
		// primed a buffer the second read reuses.
		if _, err := r.Next(); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if n > 0 {
		t.Fatalf("Next allocates %v times per record after priming", n)
	}
}

// traceKeySample builds wire-faithful keys for the bridge test.
func traceKeySample(ruleIdx int, rng *rand.Rand) flow.Key {
	var k flow.Key
	k.Set(flow.FieldEthSrc, 0x020000000000|uint64(rng.Intn(1<<24)))
	k.Set(flow.FieldEthDst, 0x020000000001)
	k.Set(flow.FieldEthType, packet.EtherTypeIPv4)
	k.Set(flow.FieldIPSrc, uint64(0x0a000000+rng.Intn(1<<16)))
	k.Set(flow.FieldIPDst, uint64(0x0a010000+ruleIdx))
	k.Set(flow.FieldIPProto, packet.IPProtoTCP)
	k.Set(flow.FieldTpSrc, uint64(1024+rng.Intn(60000)))
	k.Set(flow.FieldTpDst, 443)
	return k
}

func TestWriteTraceRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		bo   binary.ByteOrder
	}{
		{"little_endian", binary.LittleEndian},
		{"big_endian", binary.BigEndian},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := traffic.Config{Seed: 11, NumFlows: 40, MaxPackets: 20}
			flows := traffic.GenerateFlows(cfg, traffic.UniformPicker(8), traceKeySample)
			pkts := traffic.Expand(cfg, flows)
			if len(pkts) == 0 {
				t.Fatal("empty trace")
			}

			var buf bytes.Buffer
			if err := WriteTrace(&buf, pkts); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(bytes.NewReader(reencode(buf.Bytes(), tc.bo, false)))
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pkts {
				rec, err := r.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if rec.TimeNs != p.Time {
					t.Fatalf("record %d: ts = %d, want %d", i, rec.TimeNs, p.Time)
				}
				want := packet.Encode(p.Key)
				if !bytes.Equal(rec.Frame, want) {
					t.Fatalf("record %d: frame bytes differ from re-encoded key", i)
				}
				// The decoded key reproduces the trace key (modulo the
				// non-wire in_port/meta fields, zero in this trace).
				got, info := packet.Decode(rec.Frame, 0)
				if !info.OK() || got != p.Key {
					t.Fatalf("record %d: decode mismatch (info %+v)", i, info)
				}
			}
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("trailing data: %v", err)
			}
		})
	}
}
