package sim

import (
	"strconv"

	"gigaflow/internal/telemetry"
)

// CollectMetrics mirrors the run's results into a telemetry registry using
// the same metric names the live service exports, so batch simulations and
// running services can share dashboards. The latency histogram is folded
// in bucket-for-bucket.
func (r *Result) CollectMetrics(reg *telemetry.Registry) {
	label := r.Config.Label()
	c := func(name, help string, v uint64) {
		reg.CounterVec(name, help, "run").With(label).Set(v)
	}
	g := func(name, help string, v float64) {
		reg.GaugeVec(name, help, "run").With(label).Set(v)
	}
	c("gigaflow_packets_total", "Packets processed.", r.Packets)
	c("gigaflow_cache_hits_total", "Main-cache hits.", r.Hits)
	c("gigaflow_cache_misses_total", "Main-cache misses.", r.Misses)
	c("gigaflow_cache_stalls_total", "Misses that matched a partial entry chain.", r.Stalls)
	c("gigaflow_slowpath_traversals_total", "Full pipeline traversals.", r.Misses)
	c("gigaflow_install_errors_total", "Traversals that could not be cached.", r.InsertFailures)
	g("gigaflow_cache_coverage", "Rule-space coverage (installed traversals).", float64(r.Coverage))
	g("gigaflow_cache_entries", "Cache entries in use.", float64(r.Entries))
	g("gigaflow_cache_capacity", "Cache entry limit.", float64(r.Capacity))
	g("gigaflow_hit_rate", "Cache hit rate over the run.", r.HitRate())
	g("gigaflow_mean_sharing", "Mean traversals installed per cache entry.", r.MeanSharing)
	g("gigaflow_slowpath_pps", "Modelled slowpath capacity (packets/s).", r.Throughput.SlowpathPps)
	g("gigaflow_throughput_gbps", "Modelled aggregate throughput.", r.Throughput.AggregateGbps)
	c("gigaflow_cycles_pipeline_total", "Slowpath cycles in pipeline traversal.", uint64(r.Cycles.Pipeline))
	c("gigaflow_cycles_partition_total", "Slowpath cycles in partitioning.", uint64(r.Cycles.Partition))
	c("gigaflow_cycles_rulegen_total", "Slowpath cycles in rule generation.", uint64(r.Cycles.RuleGen))
	reg.HistogramVec("gigaflow_packet_latency_ns",
		"Per-packet end-to-end latency in nanoseconds.", "run").
		With(label).ObserveHistogram(&r.Latency)
	for i, core := range r.PerCore {
		reg.CounterVec("gigaflow_core_misses_total", "Slowpath misses handled per core.",
			"run", "core").With(label, strconv.Itoa(i)).Set(core.Misses)
	}
}
