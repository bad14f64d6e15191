package main

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec names a metric and fixes its unit; BENCHMARK.json lists the same
// names and units (TestBenchmarkSmoke keeps the two in step).
type spec struct{ name, unit string }

// e2eSpecs are what a user of the system sees; every workload reports all
// of them from an untraced run. Virtual time has its own unit, vms (virtual
// milliseconds on the simulator's clock), and is never mixed with a wall
// clock.
var e2eSpecs = []spec{
	{"setup_s", "s"},
	{"throughput_ops", "ops/s"},
	{"p50_ms", "ms"},
	{"vms_per_job", "vms"},
	{"live_heap_mb", "MB"},
}

// layerSpecs are the per-layer ledger a traced run reports. A layer a
// workload never enters reads 0 there (the service layers on paper-regen,
// quote and verify on noattest-routed, paper on the service workloads).
var layerSpecs = []spec{
	{"wire.ping_us", "us"},
	{"wire.overhead_us", "us"},
	{"wire.req_bytes", "B"},
	{"wire.resp_bytes", "B"},
	{"route.lookup_ns", "ns"},
	{"route.hop_us", "us"},
	{"route.primary_share", "ratio"},
	{"route.stolen", "count"},
	{"queue.wait_us.p50", "us"},
	{"queue.wait_us.p99", "us"},
	{"arb.wait_us.p50", "us"},
	{"arb.wait_us.p99", "us"},
	{"admit.max_occupancy", "count"},
	{"admit.rejected", "count"},
	{"svc.retried", "count"},
	{"compile.us", "us"},
	{"compile.cache_hit_ratio", "ratio"},
	{"execute.wall_us", "us"},
	{"execute.virt_ms", "vms"},
	{"execute.ns_per_instr", "ns"},
	{"quote.wall_us", "us"},
	{"quote.virt_ms", "vms"},
	{"quote.signs_per_job", "count"},
	{"quote.batch_size", "count"},
	{"verify.wall_us", "us"},
	{"verify.server_us", "us"},
	{"verify.memo_hit_ratio", "ratio"},
	{"release.wall_us", "us"},
	{"paper.system_ms", "ms"},
	{"paper.table1_ms", "ms"},
	{"paper.figure2_ms", "ms"},
	{"paper.figure3_ms", "ms"},
	{"paper.table2_ms", "ms"},
	{"paper.impact_ms", "ms"},
	{"vms.skinit_64KB", "vms"},
	{"vms.senter_64KB", "vms"},
	{"vms.palgen", "vms"},
	{"vms.paluse", "vms"},
	{"paper.orders_of_magnitude", "log10"},
	{"gen.late_us.p99", "us"},
	{"trace.overhead_pct", "%"},
	{"ledger.residual_pct", "%"},
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

// set records name with the unit its spec fixes.
func (m metricSet) set(name string, v float64) {
	for _, specs := range [][]spec{e2eSpecs, layerSpecs} {
		for _, s := range specs {
			if s.name == name {
				m[name] = metric{Value: v, Unit: s.unit}
				return
			}
		}
	}
	panic("tcbbench: unknown metric " + name)
}

// pick returns the metrics of specs, reading a metric the run did not
// produce as 0.
func (m metricSet) pick(specs []spec) metricSet {
	out := metricSet{}
	for _, s := range specs {
		v := m[s.name]
		out[s.name] = metric{Value: v.Value, Unit: s.unit}
	}
	return out
}
