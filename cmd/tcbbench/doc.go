// Command tcbbench is the repository's end-to-end benchmark. It measures
// what a tenant of the PAL service sees — set-up time, throughput, latency,
// the simulator's virtual time per job, memory — on three fixed workloads,
// and in a separate traced run splits each request's cost by layer, the way
// the paper's Figure 2 splits a PAL session into SKINIT, Seal, Quote and
// Unseal.
//
// Run it from the repository root (it is a module of its own, so it is not
// part of the root module's go build ./... or go test ./...). Flags take one
// dash or two; -seconds (default 22) is the measured length of one
// workload's run:
//
//	bash cmd/tcbbench/run.sh -seed 1                       # all three workloads
//	bash cmd/tcbbench/run.sh -workload noattest-routed -seed 2 -seconds 22
//	bash cmd/tcbbench/run.sh -workload attest-batched-routed -trace 1   # per-layer ledger
//	cd cmd/tcbbench && go test ./...                       # smoke, pins, generator
//	python3 cmd/tcbbench/spread.py --runs 10               # run-to-run spread
//
// Each workload prints a summary on standard error and ends with one JSON
// line on standard output: {"correct", "attempted", "failed", "metrics"},
// the end-to-end metrics untraced, the per-layer ones traced. -o writes the
// full reports (every phase's outcome counts, the ledger, the set-up
// samples). BENCHMARK.json lists the workloads, the metrics with units and
// the bounds a change may not worsen them by.
//
// # Workloads
//
// The deployment is fixed in the workload definitions, never taken from
// flags, and matches the palservd and palrouter defaults: the recommended HP
// dc5750 with 8 sePCRs, 1024-bit keys, platform seed 42 (backend i of a
// fleet uses 42+i), one replica per backend, every other palsvc.Config
// field at its zero value.
//
//   - attest-batched-routed: client → cluster.Router → 2 backends with
//     Batch{MaxSize: 8}, echo PAL, 16 tenants, attested. The fleet path: a
//     Merkle batch quote verified over an HMAC session instead of one RSA
//     signature per job, plus two wire hops and the batcher's linger.
//   - noattest-routed: client → router → 2 backends, NoAttest, 64 tenants.
//     Quote and verify are bypassed, so the wire codec, the hop and the
//     queue dominate, and the 64 images overflow the launch cache. A change
//     to quoting should not move it.
//   - paper-regen: no service and no wire. Each op is
//     experiments.VerifyAll(experiments.Quick()) at one of 4 seeds drawn from
//     -seed, which runs SEA, seal/unseal, late launch and every memo. Each
//     seed is cold on its first op (~85ms: keys, machines) and warm after
//     (~1ms). Set-up is the cold seed-42 regeneration, which must equal
//     testdata/paper_seed42.json bit for bit; a warm seed-42 recheck ends
//     the run.
//
// Two more workloads were measured and left out because their wall-clock
// metrics spread past any bound from run to run on a 2-vCPU host shared
// with other tenants: one-shot quotes to a single backend (each job is
// mostly one RSA signature, and that host's RSA speed swings more than its
// speed for other code: over ten runs its throughput spread 13–28% between
// quartiles and its p50 12–30%), and a 400k-instruction PAL preempted in
// 100µs deadline slices (its open-loop p50 spread 30–36%). The one-shot
// quote path and the execute layer have no workload of their own here.
//
// A service workload runs set-up; a warm-up (each tenant's image once,
// then a second's worth of closed loop); an open loop at the workload's
// fixed rate, about 45% of its closed-loop throughput; then, on a second
// system set up and warmed the same way, a closed loop of 2 connections
// sending back to back. Every phase runs a fixed number of ops (the closed
// loop about 45% of the run at the expected throughput) because what a
// backend holds grows with the jobs it has served: palsvc keeps every stage
// sample, its stats op — which the router's prober calls every 100ms —
// sorts them all under the metrics lock, and the TPM's memo tables empty
// every 4,096 entries. Each loop starting on a system that has served only
// the warm-up keeps those stalls short while it is measured, and the final
// heap reading always follows the same number of jobs. The open loop has at
// least 1,000 arrivals, so its p99 has ten samples beyond it.
//
// # Metrics
//
// setup_s is the time from a child process's start until its system
// answers a first ping (paper-regen: until the pinned regeneration is
// checked), the median over eleven processes; RSA key generation draws
// fresh randomness every time, so one set-up varies by tens of percent.
// throughput_ops is the median over the closed loop's windows (equal shares
// of its ops, about a second each) of OK ops per second. p50_ms is the
// median over the open loop's windows (about a second of arrivals each) of
// each window's median latency, timed from each arrival's scheduled send
// (paper-regen: of op durations, over the closed loop's windows). A burst of
// host noise that slows a few windows moves neither: on noattest-routed one
// lifted four of thirteen windows' medians from 0.2ms to as much as 5.5ms
// and the whole open loop's median by 15%. vms_per_job is the mean of
// execute_ns + quote_gen_ns over the open loop's OK jobs in virtual
// milliseconds (unit vms: the simulator's clock, the paper's result, never
// mixed with wall time); for paper-regen it is the Figure 2 "PAL Use"
// session averaged over the run's regenerations. It is exact run to run on noattest-routed; on
// paper-regen it depends on the seeds drawn, and on attest-batched-routed on
// how jobs fall into batches, which grow when the host runs slower (its
// spread between quartiles over ten runs was 0.17–0.81%, hence a 3% bound).
// live_heap_mb is HeapAlloc after collections at the end of the run, with
// the router's prober stopped: the footprint of the closed loop's system
// (its caches, memos and metrics) and of the process-global caches both
// systems filled. On the routed workloads it also follows how many jobs the
// router moved between backends and how many batch digests a backend's
// session memo holds. The open loop's p99 (with its sample count) is
// printed and in the -o report but not gated: its run-to-run spread was
// 12–80%.
//
// The bounds in BENCHMARK.json come from measured spreads. On a 2-vCPU
// host shared with other tenants, three sets of ten 22-second runs per
// workload, run back to back, gave spreads between quartiles of 4–21% for
// throughput_ops and under 1% for vms_per_job and live_heap_mb, and the two
// sets with windowed p50_ms 3–16% for it; consecutive sets' medians agreed
// within 10%, set-up's within 25%. Over hours the host's speed drifted by a
// quarter or more, by different amounts for different work (set-up, which is
// mostly RSA key generation, and paper-regen's memory clearing moved most),
// so two sets run far apart can differ by more than a bound without any
// change to the code.
//
// Every outcome is counted against the attempts of its phase: ok, rejected
// by code, deadline, failed, conn_errors, and check_failed — an answer
// whose output is wrong, whose verified_as is not the request's name, or
// that a backend outside Router.Placement served.
//
// # Why its own load generator
//
// palsvc.RunLoad gets two things wrong for a benchmark. Its closed loop pins
// tenant i%clients to each connection, so 2 connections only ever use 2
// tenants. Its open loop fires one ticker per tenant, all in lockstep: at
// 600/s over 16 tenants it measured a p50 of 8.9ms against 1.7ms closed
// loop. Here each arrival draws its tenant from the seed (in rounds that
// shuffle every tenant once, so each backend's share of the load does not
// move with the seed), arrivals are evenly spaced by one pacer, and 2
// connections carry them. The pacer sleeps with nanosleep, because the
// runtime's timers wake up to a millisecond late. gen.late_us is how long
// after its scheduled time each arrival was written to a connection: the
// pacer's own delay plus any wait for a free connection, so a server stall
// shows there as well as in the latency of every arrival behind it.
//
// # Why a process per workload
//
// The launch-measurement cache, the TPM's deterministic-crypto memos and
// the experiments' machine labs are global to a process. A workload run
// after another would start with the other's caches warm, so the parent
// starts a fresh child for each workload and for each set-up sample.
//
// # Reading the ledger
//
// A traced run (-trace) runs the open loop untraced and traced (spans
// around each client call), then replays the first 2,000 arrivals of the
// same seeded stream one at a time (bounded by half the run length). For
// each it records spans, all from this package, around calls into each
// layer's public functions: Client.Run through the router and straight to
// Router.Placement's primary; Router.Placement; Service.Run on the
// in-process backend; then the job replayed on a core.System of the same
// profile — core.CompilePAL on an image's first sighting, SKSM.NewSECB and
// RunToCompletion, tpm.OpenQuoteSession once and QuoteBatchAfterExit over
// pairs, Session.VerifyBatchedQuote, SKSM.Release — and a Client.Ping.
// Spans are written as JSONL at exit.
//
// The ledger nests those measurements the way the layers nest: the router's
// round trip contains the direct one, which contains Service.Run, which
// contains the stages (queue and arbitration wait from the job's own
// result, compile, execute, quote, verify, release from the replay). A
// layer's row is the median of its self time — its duration minus the
// union of its children's — so route is the router hop, wire is the codec
// and TCP round trip, and svc is what the service spends outside its
// stages (admission, hand-offs, the batcher's linger). The rows' sum is
// what one request costs alone ("unloaded"); the residual against p50_ms
// is what load adds, plus the error of summing medians. trace.overhead_pct
// is the traced open loop's p50 against the untraced one's.
//
// Per-layer metrics, and which end-to-end metric each should move, on
// which workload:
//
//	layer    metrics                                      moves                      on
//	wire     wire.ping_us, wire.overhead_us,              p50_ms, throughput_ops     noattest-routed
//	         wire.req_bytes, wire.resp_bytes
//	route    route.lookup_ns, route.hop_us,               p50_ms                     both routed workloads
//	         route.primary_share, route.stolen
//	queue,   queue.wait_us.p50/p99, arb.wait_us.p50/p99,  p50_ms, p99 (reported,     both routed workloads, under load
//	admit,   admit.max_occupancy, admit.rejected,         not gated)
//	arb      svc.retried
//	compile  compile.us, compile.cache_hit_ratio          p99, live_heap_mb          noattest-routed (64 images)
//	execute  execute.wall_us, execute.virt_ms,            little: an echo job        both routed workloads
//	         execute.ns_per_instr                         runs 8 instructions        (vms_per_job nowhere)
//	quote    quote.wall_us, quote.virt_ms,                throughput_ops, p50_ms,    attest-batched-routed (none on
//	         quote.signs_per_job, quote.batch_size        vms_per_job                noattest-routed)
//	verify   verify.wall_us, verify.server_us,            throughput_ops             attest-batched-routed
//	         verify.memo_hit_ratio
//	release  release.wall_us                              -                          -
//	paper    paper.system_ms, paper.table1_ms,            throughput_ops             paper-regen (none on the service
//	         paper.figure2_ms, paper.figure3_ms,                                     workloads)
//	         paper.table2_ms, paper.impact_ms; exact
//	         vms.skinit_64KB, vms.senter_64KB,
//	         vms.palgen, vms.paluse,
//	         paper.orders_of_magnitude
//	generator gen.late_us.p99, trace.overhead_pct,        -                          -
//	         ledger.residual_pct
//
// A layer a workload never enters reports 0 in its traced result line.
package main
