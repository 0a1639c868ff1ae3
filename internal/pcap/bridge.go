package pcap

import (
	"io"

	"gigaflow/internal/packet"
	"gigaflow/internal/traffic"
)

// WriteTrace serializes a synthesized traffic trace to a classic pcap
// stream, turning the generator's in-memory workloads into portable
// capture artifacts any pcap tool (or cmd/gfreplay) can consume.
//
// Each trace packet's key is encoded to a minimal wire frame via
// packet.AppendFrame; the trace's virtual nanosecond timestamps map
// directly onto the capture timestamps (epoch-relative, so a trace
// starting at t=0 starts at 1970 — deterministic by construction). The
// trace's Size field, which models the on-wire length, is preserved as
// the record's original length, with the encoded headers as the
// captured bytes — exactly how a snap-length-limited live capture of
// those packets would look.
func WriteTrace(w io.Writer, pkts []traffic.Packet) error {
	pw, err := NewWriter(w)
	if err != nil {
		return err
	}
	var buf []byte
	for i := range pkts {
		buf = packet.AppendFrame(buf[:0], pkts[i].Key)
		if err := pw.WriteRecord(pkts[i].Time, buf, pkts[i].Size); err != nil {
			return err
		}
	}
	return nil
}
