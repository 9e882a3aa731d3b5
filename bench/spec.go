package main

import "poise/internal/workloads"

// The benchmark's fixed vocabulary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root lists the
// same names; the smoke test fails when the two drift apart. A change
// that claims a gain may not edit this file.

// workloadSpec names one workload, why it is here, how many goroutines
// do its work (the yardstick runs on as many) and how to build it.
type workloadSpec struct {
	Name    string
	Why     string
	Workers int
	New     func() workload
}

var (
	memboundApps = []string{"syr2k", "ii", "bfs", "kmeans"}
	computeApps  = []string{"wc", "covar", "gramschm", "sradv2", "hybridsort", "hotspot", "pathfinder"}
)

var workloadSpecs = []workloadSpec{
	{
		Name:    "sim_membound",
		Why:     "L1 hit rate under 60%, schedulers sit blocked: cache/MSHR, NoC, DRAM and the event heap do the work, Scheduler.Pick little",
		Workers: 1,
		New: func() workload {
			return &simWorkload{apps: memboundApps, size: workloads.Small, sms: 8}
		},
	},
	{
		Name:    "sim_compute",
		Why:     "L1 hit rate over 90%, every scheduler issues nearly every cycle: Pick/CanIssue/NextWake dominate and the memory system idles",
		Workers: 1,
		New: func() workload {
			return &simWorkload{apps: computeApps, size: workloads.Medium, sms: 8}
		},
	},
	{
		Name:    "fig7_mini",
		Why:     "poisebench -run fig7 cut to fit: a 2-worker {N,p} sweep then the scheme grid, thousands of short GPU.Run calls under profile/runner/experiments",
		Workers: 2,
		New: func() workload {
			return &fig7Workload{subset: []string{"syr2k", "bfs", "kmeans"}, sms: 4, step: 12}
		},
	},
	{
		Name:    "fleet_loopback",
		Why:     "the same executors through leases, JSONL and HTTP on loopback with millisecond tasks, so coordination cost is visible",
		Workers: 2,
		New: func() workload {
			return &fleetWorkload{apps: computeApps, sms: 4, step: 4}
		},
	},
	{
		Name:    "replay_ckpt",
		Why:     "addresses from the trace arena, not generators; state written and read back every 5000 cycles; a fresh GPU per resume",
		Workers: 1,
		New: func() workload {
			return &replayWorkload{apps: []string{"ii", "syr2k"}, size: workloads.Medium, sms: 8, every: 5000}
		},
	},
}

// metricSpec describes one metric. Bound applies to end-to-end metrics
// only. For per-layer metrics, Moves names the end-to-end metric the
// layer metric is expected to move and On the workload it should show
// on; Kind says how it is obtained.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Kind   string // "exact", "timed", "probe" or "flow"
	Moves  string
	On     string
	How    string
}

// Kinds of per-layer metric.
const (
	kindExact = "exact" // a count that repeats bit-for-bit at a fixed seed
	kindTimed = "timed" // host time measured around calls of the traced passes
	kindProbe = "probe" // a fixed-count loop over a layer's public functions
	kindFlow  = "flow"  // supplied only by workloads whose flow has the layer; 0 elsewhere
)

// Paper values printed beside the simulated end-to-end metrics. The
// evaluation subset and scale differ from the paper's, so these are
// context, not a validated error figure.
var paperValues = map[string]string{
	"poise_speedup_hmean": "paper: 1.466 on the full evaluation set, 0.984 on the compute-intensive set",
	"poise_energy_ratio":  "paper: 0.484",
}

// The host-time metrics are calibrated: seconds as measured, divided by
// the slowdown of the yardstick's reference work over the same pass or
// set-up (yardstick.go), so they read in seconds of the reference box
// with quiet neighbours whatever the neighbours were doing.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		How: "median of 5 calibrated set-ups: catalogue, sim.New, recording and writing traces, plan build, listener, warm-up"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25,
		How: "calibrated host wall-clock of one pass (the sum over its units), median over the timed passes"},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25,
		How: "calibrated process user+sys CPU-seconds (getrusage) of one pass, median over the timed passes"},
	{Name: "ns_per_simcycle", Unit: "ns/cycle", Better: "lower", Bound: 0.25,
		How: "cpu_s*1e9 / simulated cycles summed over every kernel run of the pass"},
	{Name: "minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25,
		How: "1e-6 * simulated warp-instructions of the pass / wall_s"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05,
		How: "runtime.MemStats.TotalAlloc delta over one pass, median"},
	{Name: "poise_speedup_hmean", Unit: "x", Better: "higher", Bound: 0.06,
		How: "harmonic mean over the workload's applications of IPC(Poise)/IPC(GTO); exact at a fixed seed"},
	{Name: "poise_min_speedup", Unit: "x", Better: "higher", Bound: 0.06,
		How: "worst application's IPC(Poise)/IPC(GTO); exact at a fixed seed"},
	{Name: "poise_energy_ratio", Unit: "ratio", Better: "lower", Bound: 0.06,
		How: "mean over applications of energy(Poise)/energy(GTO) under energy.Default(); exact at a fixed seed"},
}

var perLayer = []metricSpec{
	{Name: "sim.run_ns_per_simcycle", Unit: "ns/cycle", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle, wall_s", On: "sim_membound, sim_compute, fig7_mini",
		How: "span around each GPU.Run / its Cycles, median over the ready-engine runs"},
	{Name: "sim.dense_over_ready", Unit: "ratio", Better: "higher", Kind: kindProbe, Moves: "ns_per_simcycle", On: "sim_membound (above 1), sim_compute (about 1; ready tracking should raise it)",
		How: "the same kernels on EngineDense; host-time ratio dense/ready under GTO (machine-independent)"},
	{Name: "sim.cycles", Unit: "count", Better: "lower", Kind: kindExact, Moves: "ns_per_simcycle (denominator)", On: "all",
		How: "simulated cycles summed over every kernel run of a pass"},
	{Name: "sim.instructions", Unit: "count", Better: "higher", Kind: kindExact, Moves: "minstr_per_s (numerator)", On: "all",
		How: "simulated warp-instructions summed over every kernel run of a pass"},
	{Name: "sim.kernel_runs", Unit: "count", Better: "lower", Kind: kindExact, Moves: "wall_s", On: "all",
		How: "kernel runs of a pass"},
	{Name: "sim.new_ms", Unit: "ms", Better: "lower", Kind: kindProbe, Moves: "setup_s; wall_s", On: "all; replay_ckpt (one New per hop)",
		How: "median span around sim.New"},
	{Name: "sim.reset_us", Unit: "us", Better: "lower", Kind: kindProbe, Moves: "wall_s", On: "fleet_loopback, fig7_mini (one Reset per task)",
		How: "median span around GPU.Reset"},
	{Name: "sim.snapshot_us", Unit: "us", Better: "lower", Kind: kindProbe, Moves: "wall_s", On: "replay_ckpt",
		How: "GPU.SnapshotKernel of the first kernel stopped mid-run"},
	{Name: "sim.restore_us", Unit: "us", Better: "lower", Kind: kindProbe, Moves: "wall_s", On: "replay_ckpt",
		How: "GPU.ResumeKernel with the interrupt already due, so it returns right after restoring"},
	{Name: "sim.snapshot_bytes", Unit: "bytes", Better: "lower", Kind: kindProbe, Moves: "wall_s, alloc_mb", On: "replay_ckpt",
		How: "length of that snapshot; exact"},
	{Name: "sim.hop_ms", Unit: "ms", Better: "lower", Kind: kindProbe, Moves: "wall_s", On: "replay_ckpt",
		How: "(chained wall - uninterrupted wall of the same kernel) / hops"},
	{Name: "sim.hops", Unit: "count", Better: "lower", Kind: kindExact, Moves: "wall_s", On: "replay_ckpt",
		How: "checkpoint hops of a pass (replay_ckpt) or of the chain probe (elsewhere)"},
	{Name: "sm.issued", Unit: "count", Better: "higher", Kind: kindProbe, Moves: "explains ns_per_simcycle", On: "sim_compute vs sim_membound",
		How: "Scheduler.IssueCycles summed after every GPU.Run of the engine probe; exact"},
	{Name: "sm.stall_frac", Unit: "frac", Better: "lower", Kind: kindProbe, Moves: "explains ns_per_simcycle", On: "sim_membound",
		How: "StallCycles / (Issue+Stall+Idle) over the same runs; exact"},
	{Name: "sm.idle_frac", Unit: "frac", Better: "lower", Kind: kindProbe, Moves: "explains ns_per_simcycle", On: "sim_membound",
		How: "IdleCycles / (Issue+Stall+Idle) over the same runs; exact"},
	{Name: "sm.replays", Unit: "count", Better: "lower", Kind: kindExact, Moves: "explains ns_per_simcycle", On: "sim_membound",
		How: "KernelResult.Replays summed over a pass"},
	{Name: "sm.ns_per_issue", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle", On: "sim_compute",
		How: "host ns of the ready-engine runs / sm.issued"},
	{Name: "sm.pick_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle", On: "sim_compute",
		How: "Scheduler.Pick+NextWake on a scheduler launched full, every warp waiting on a miss"},
	{Name: "cache.l1_accesses", Unit: "count", Better: "lower", Kind: kindExact, Moves: "explains regime", On: "sim_membound, fig7_mini",
		How: "L1 accesses summed over a pass"},
	{Name: "cache.l1_hit_rate", Unit: "frac", Better: "higher", Kind: kindExact, Moves: "poise_speedup_hmean", On: "sim_membound, fig7_mini",
		How: "L1 hits / accesses over a pass"},
	{Name: "cache.l2_accesses", Unit: "count", Better: "lower", Kind: kindExact, Moves: "explains regime", On: "sim_membound, fig7_mini",
		How: "L2 accesses summed over a pass"},
	{Name: "cache.l2_hit_rate", Unit: "frac", Better: "higher", Kind: kindExact, Moves: "poise_speedup_hmean", On: "sim_membound, fig7_mini",
		How: "L2 hits / accesses over a pass"},
	{Name: "cache.lookup_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle", On: "sim_membound",
		How: "Cache.Lookup (+Fill on a miss) over the kernel's address stream"},
	{Name: "cache.mshr_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle", On: "sim_membound",
		How: "MSHRFile Lookup/Allocate/Release/Recycle with the file kept full"},
	{Name: "noc.req_flits", Unit: "count", Better: "lower", Kind: kindExact, Moves: "explains ns_per_simcycle", On: "sim_membound",
		How: "request flits summed over a pass"},
	{Name: "noc.resp_flits", Unit: "count", Better: "lower", Kind: kindExact, Moves: "explains ns_per_simcycle", On: "sim_membound",
		How: "response flits summed over a pass"},
	{Name: "noc.request_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle", On: "sim_membound",
		How: "Crossbar.Request+Response"},
	{Name: "dram.accesses", Unit: "count", Better: "lower", Kind: kindExact, Moves: "explains ns_per_simcycle", On: "sim_membound",
		How: "DRAM accesses summed over a pass"},
	{Name: "dram.access_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle", On: "sim_membound",
		How: "DRAM.Access over the kernel's line addresses"},
	{Name: "trace.addr_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle", On: "sim_membound (not replay_ckpt)",
		How: "synthetic Pattern.Addr for the first kernel's slots"},
	{Name: "traceio.replay_addr_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "ns_per_simcycle", On: "replay_ckpt (not sim_membound)",
		How: "Replay.Addr over the ingested arena of the same kernel"},
	{Name: "traceio.record_ms", Unit: "ms", Better: "lower", Kind: kindProbe, Moves: "setup_s", On: "replay_ckpt",
		How: "traceio.Record of the first application"},
	{Name: "traceio.write_mb_per_s", Unit: "MB/s", Better: "higher", Kind: kindProbe, Moves: "setup_s", On: "replay_ckpt",
		How: "raw container MB / time of the gzipped traceio.Write"},
	{Name: "traceio.container_mb", Unit: "MB", Better: "lower", Kind: kindProbe, Moves: "setup_s", On: "replay_ckpt",
		How: "gzipped container size; exact"},
	{Name: "traceio.ingest_mb_per_s", Unit: "MB/s", Better: "higher", Kind: kindProbe, Moves: "wall_s", On: "replay_ckpt",
		How: "raw MB / time of ReadWorkload (gunzip + stream + characterise)"},
	{Name: "traceio.scan_mb_per_s", Unit: "MB/s", Better: "higher", Kind: kindProbe, Moves: "wall_s", On: "replay_ckpt",
		How: "raw MB / time of a Scanner drain over the raw bytes"},
	{Name: "traceio.ingest_allocs", Unit: "count", Better: "lower", Kind: kindProbe, Moves: "alloc_mb", On: "replay_ckpt",
		How: "runtime Mallocs delta over ReadWorkload"},
	{Name: "snap.encode_mb_per_s", Unit: "MB/s", Better: "higher", Kind: kindProbe, Moves: "wall_s", On: "replay_ckpt",
		How: "Checkpoint.Encode of a mid-kernel checkpoint"},
	{Name: "snap.decode_mb_per_s", Unit: "MB/s", Better: "higher", Kind: kindProbe, Moves: "wall_s", On: "replay_ckpt",
		How: "sim.DecodeCheckpoint of the same bytes"},
	{Name: "snap.store_roundtrip_us", Unit: "us", Better: "lower", Kind: kindProbe, Moves: "wall_s", On: "replay_ckpt",
		How: "snap.Store Save+Load in a scratch directory"},
	{Name: "poise.host_over_gto", Unit: "ratio", Better: "lower", Kind: kindProbe, Moves: "wall_s", On: "sim_membound, sim_compute",
		How: "host ns per simulated cycle of the Poise runs / of the GTO runs (HIE host overhead)"},
	{Name: "poise.tuple_changes", Unit: "count", Better: "lower", Kind: kindProbe, Moves: "poise_speedup_hmean, poise_min_speedup", On: "sim_membound, fig7_mini",
		How: "TupleLog entries that are not predictions, Poise runs of the engine probe; exact"},
	{Name: "poise.predictions", Unit: "count", Better: "higher", Kind: kindProbe, Moves: "poise_speedup_hmean, poise_min_speedup", On: "sim_membound, fig7_mini",
		How: "TupleLog entries that are raw HIE predictions; exact"},
	{Name: "poise.predict_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "none expected (ledger row)", On: "-",
		How: "Weights.PredictTuple"},
	{Name: "profile.points", Unit: "count", Better: "lower", Kind: kindFlow, Moves: "wall_s, cpu_s", On: "fig7_mini, fleet_loopback",
		How: "grid points swept in a pass; exact"},
	{Name: "profile.sweep_s", Unit: "s", Better: "lower", Kind: kindFlow, Moves: "wall_s, cpu_s", On: "fig7_mini, fleet_loopback",
		How: "span around WorkloadProfiles (fig7_mini) or the sweep campaign (fleet_loopback)"},
	{Name: "profile.points_per_s", Unit: "1/s", Better: "higher", Kind: kindFlow, Moves: "wall_s", On: "fig7_mini, fleet_loopback",
		How: "profile.points / profile.sweep_s"},
	{Name: "runner.parallel_eff", Unit: "frac", Better: "higher", Kind: kindTimed, Moves: "wall_s (not cpu_s)", On: "fig7_mini, fleet_loopback",
		How: "sweep CPU-seconds / (sweep wall * 2); pass CPU / wall on the one-goroutine workloads"},
	{Name: "experiments.grid_s", Unit: "s", Better: "lower", Kind: kindFlow, Moves: "wall_s", On: "fig7_mini, fleet_loopback",
		How: "span around Performance() (fig7_mini) or the cell campaign (fleet_loopback)"},
	{Name: "experiments.cells", Unit: "count", Better: "lower", Kind: kindFlow, Moves: "wall_s", On: "fig7_mini, fleet_loopback",
		How: "experiment cells run in a pass; exact"},
	{Name: "experiments.hmean_swl", Unit: "x", Better: "higher", Kind: kindFlow, Moves: "context for poise_speedup_hmean", On: "fig7_mini",
		How: "PerfSummary.HMeanSpeedup[SWL]; exact"},
	{Name: "experiments.hmean_pcal_swl", Unit: "x", Better: "higher", Kind: kindFlow, Moves: "context for poise_speedup_hmean", On: "fig7_mini",
		How: "PerfSummary.HMeanSpeedup[PCAL-SWL]; exact"},
	{Name: "experiments.hmean_static_best", Unit: "x", Better: "higher", Kind: kindFlow, Moves: "context for poise_speedup_hmean", On: "fig7_mini",
		How: "PerfSummary.HMeanSpeedup[Static-Best]; exact"},
	{Name: "gridplan.plan_bytes", Unit: "bytes", Better: "lower", Kind: kindProbe, Moves: "setup_s", On: "fleet_loopback",
		How: "JSONL size of a step-4 sweep plan of the workload's kernels; exact"},
	{Name: "gridplan.digest_us", Unit: "us", Better: "lower", Kind: kindProbe, Moves: "setup_s", On: "fleet_loopback",
		How: "gridplan.KernelDigest, median over kernels"},
	{Name: "gridplan.plan_roundtrip_ms", Unit: "ms", Better: "lower", Kind: kindProbe, Moves: "setup_s", On: "fleet_loopback",
		How: "WritePlanFile + ReadPlanFile of that plan"},
	{Name: "fleet.tasks_per_s", Unit: "1/s", Better: "higher", Kind: kindFlow, Moves: "wall_s", On: "fleet_loopback",
		How: "sweep tasks / sweep campaign wall"},
	{Name: "fleet.over_inproc", Unit: "ratio", Better: "lower", Kind: kindFlow, Moves: "wall_s", On: "fleet_loopback",
		How: "sweep campaign wall / wall of profile.RunTasks(Workers:2) on the same plan, both warm"},
	{Name: "fleet.leases", Unit: "count", Better: "lower", Kind: kindFlow, Moves: "explains wall_s spread", On: "fleet_loopback",
		How: "Coordinator.Stats().Granted, both campaigns, median over passes"},
	{Name: "fleet.stolen_tasks", Unit: "count", Better: "lower", Kind: kindFlow, Moves: "explains wall_s spread", On: "fleet_loopback",
		How: "Coordinator.Stats().StolenTasks, median over passes"},
	{Name: "fleet.expired", Unit: "count", Better: "lower", Kind: kindFlow, Moves: "must be 0", On: "fleet_loopback",
		How: "Coordinator.Stats().Expired; counted as failed operations"},
	{Name: "fleet.duplicates", Unit: "count", Better: "lower", Kind: kindFlow, Moves: "must be 0", On: "fleet_loopback",
		How: "Coordinator.Stats().Duplicates; counted as failed operations"},
	{Name: "workloads.catalogue_ms", Unit: "ms", Better: "lower", Kind: kindProbe, Moves: "setup_s", On: "all",
		How: "span around NewCatalogueSeeded"},
	{Name: "serve.decide_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "none in this benchmark (ledger row)", On: "-",
		How: "Decider.Decide on a hot key"},
	{Name: "serve.decide_uncached_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "none in this benchmark (ledger row)", On: "-",
		How: "Decider.Decide on first-seen keys"},
	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower", Kind: kindTimed, Moves: "none (cost of observing)", On: "all",
		How: "traced wall_s / untraced wall_s of the same process - 1"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower", Kind: kindTimed, Moves: "none (what the box did; the calibrated metrics divide by it)", On: "all",
		How: "mean yardstick slice of a traced pass / the nominal slice, median over passes"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
