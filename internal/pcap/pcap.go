// Package pcap reads and writes the classic libpcap capture format
// (the 24-byte global header with magic 0xa1b2c3d4, followed by
// per-packet records) using only the standard library. Both byte
// orders and both timestamp resolutions — the original microsecond
// magic and the 0xa1b23c4d nanosecond variant — are understood on
// read; the writer emits little-endian nanosecond files, the
// highest-fidelity form for the repo's virtual-time traces.
//
// The reader streams: each Next decodes one record into a buffer
// reused across calls, so iterating a multi-gigabyte capture costs a
// single amortized allocation.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Classic pcap magic numbers, as they appear when read in the file's
// native byte order.
const (
	MagicMicros = 0xa1b2c3d4 // seconds + microseconds records
	MagicNanos  = 0xa1b23c4d // seconds + nanoseconds records
)

// LinkTypeEthernet is the only link type this repo produces (DLT_EN10MB).
const LinkTypeEthernet = 1

// DefaultSnapLen is the per-record capture limit written to new files
// and the sanity bound enforced on read when a file declares none.
const DefaultSnapLen = 262144

const (
	fileHeaderLen   = 24
	recordHeaderLen = 16
)

// ErrBadMagic reports a stream that does not begin with a classic pcap
// magic number in either byte order.
var ErrBadMagic = errors.New("pcap: bad magic (not a classic pcap file)")

// Record is one captured frame. Frame aliases the reader's internal
// buffer and is valid only until the next call to Next; callers that
// retain frames must copy.
type Record struct {
	// TimeNs is the capture timestamp in nanoseconds. Microsecond
	// files surface their timestamps multiplied up to nanoseconds.
	TimeNs int64
	// Frame is the captured bytes (up to the file's snap length).
	Frame []byte
	// OrigLen is the frame's original on-wire length, which exceeds
	// len(Frame) when the capture was truncated by the snap length.
	OrigLen int
}

// Reader streams records from a classic pcap file.
type Reader struct {
	r       io.Reader
	bo      binary.ByteOrder
	nanos   bool
	snapLen uint32
	hdr     [recordHeaderLen]byte
	buf     []byte
}

// NewReader parses the global header, auto-detecting byte order and
// timestamp resolution from the magic number.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("pcap: truncated file header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	pr := &Reader{r: r}
	switch binary.LittleEndian.Uint32(hdr[:4]) {
	case MagicMicros:
		pr.bo = binary.LittleEndian
	case MagicNanos:
		pr.bo, pr.nanos = binary.LittleEndian, true
	default:
		switch binary.BigEndian.Uint32(hdr[:4]) {
		case MagicMicros:
			pr.bo = binary.BigEndian
		case MagicNanos:
			pr.bo, pr.nanos = binary.BigEndian, true
		default:
			return nil, ErrBadMagic
		}
	}
	pr.snapLen = pr.bo.Uint32(hdr[16:20])
	if pr.snapLen == 0 || pr.snapLen > DefaultSnapLen {
		// A zero or absurd snaplen must not let a corrupt record
		// header demand an arbitrary allocation below.
		pr.snapLen = DefaultSnapLen
	}
	return pr, nil
}

// Nanosecond reports whether the file uses the nanosecond magic.
func (r *Reader) Nanosecond() bool { return r.nanos }

// Next returns the next record, or io.EOF at a clean end of stream. A
// record cut off mid-way surfaces io.ErrUnexpectedEOF; a record header
// whose captured length exceeds the snap length is rejected as corrupt
// rather than trusted with an allocation.
func (r *Reader) Next() (Record, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("pcap: truncated record header: %w", err)
		}
		return Record{}, err // io.EOF: clean end of capture
	}
	sec := r.bo.Uint32(r.hdr[0:4])
	frac := r.bo.Uint32(r.hdr[4:8])
	inclLen := r.bo.Uint32(r.hdr[8:12])
	origLen := r.bo.Uint32(r.hdr[12:16])
	if inclLen > r.snapLen {
		return Record{}, fmt.Errorf("pcap: record claims %d captured bytes (snaplen %d): corrupt file", inclLen, r.snapLen)
	}
	if cap(r.buf) < int(inclLen) {
		r.buf = make([]byte, inclLen)
	}
	r.buf = r.buf[:inclLen]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, fmt.Errorf("pcap: truncated record body: %w", err)
	}
	ts := int64(sec) * 1_000_000_000
	if r.nanos {
		ts += int64(frac)
	} else {
		ts += int64(frac) * 1000
	}
	return Record{TimeNs: ts, Frame: r.buf, OrigLen: int(origLen)}, nil
}

// Writer emits a classic pcap stream in one format: little-endian,
// nanosecond resolution, Ethernet link type, snap length DefaultSnapLen.
type Writer struct {
	w   io.Writer
	hdr [recordHeaderLen]byte
}

// NewWriter writes the global header and returns a record writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [fileHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], MagicNanos)
	le.PutUint16(hdr[4:6], 2) // version 2.4
	le.PutUint16(hdr[6:8], 4)
	// thiszone and sigfigs stay zero, as every producer writes them.
	le.PutUint32(hdr[16:20], DefaultSnapLen)
	le.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// WriteRecord writes one record with an explicit original length,
// which callers use when the captured bytes are a truncation (or, for
// synthesized traces, a minimal reconstruction) of a longer frame.
func (w *Writer) WriteRecord(tsNs int64, frame []byte, origLen int) error {
	if len(frame) > DefaultSnapLen {
		frame = frame[:DefaultSnapLen]
	}
	if origLen < len(frame) {
		origLen = len(frame)
	}
	le := binary.LittleEndian
	le.PutUint32(w.hdr[0:4], uint32(tsNs/1_000_000_000))
	le.PutUint32(w.hdr[4:8], uint32(tsNs%1_000_000_000))
	le.PutUint32(w.hdr[8:12], uint32(len(frame)))
	le.PutUint32(w.hdr[12:16], uint32(origLen))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(frame)
	return err
}
