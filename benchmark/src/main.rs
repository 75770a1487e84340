//! SecCloud benchmark: one seeded workload per process, measured end to end
//! or, with `--trace 1`, broken down by layer.
//!
//! ```text
//! benchmark --workload <audit-clean|audit-chaos|storage-rw|epoch-registry>
//!           [--seed N] [--seconds S] [--trace 0|1] [--spans PATH] [--smoke]
//! ```
//!
//! One client thread drives the workload as a closed loop: each op starts
//! when the previous one has returned. The run sets the workload up, runs 20
//! unmeasured warm-up ops so the prepared-key caches fill, then measures a
//! fixed number of ops: `--seconds` times the workload's rate on the
//! reference host. Five more set-ups of spare worlds are spread through the
//! window; `setup_s` is the median of all six. Each workload first runs an
//! unmeasured pre-check on a small world with a cheating server. An op that
//! does not come back clean counts as failed. Every op's output is checked;
//! the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`, and the exit code is 0 only when every check passed.
//! `BENCHMARK.md` describes the workloads and metrics.
#![forbid(unsafe_code)]

mod audit;
mod registry;
mod samples;
mod shim;
mod speed;
mod storage;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use seccloud_cloudsim::behavior::Behavior;
use seccloud_ibs::VerifierPublic;
use seccloud_pairing::{cache, hash_to_g1, pairing_prepared};

use crate::samples::{vm_hwm_kb, Samples};
use crate::trace::Breakdown;

/// Set-ups per untraced run; `setup_s` is their median. The first builds
/// the measured world; the others build spare worlds, torn down at once,
/// spread evenly through the window. The host's speed drifts over seconds,
/// so set-ups made back to back would all share one drift.
const SETUPS: usize = 6;
/// Probes timed before and after each set-up to scale its time.
const SETUP_PROBES: usize = 5;
/// Unmeasured ops before the window.
const WARMUP_OPS: u64 = 20;
/// The window is cut into consecutive blocks of at least this many ops, and
/// the throughput and median come from the run's best block: host noise
/// only ever adds time, so a burst of it inside some blocks moves neither.
/// Under chaos about half the ops meet a fault, so a block median sits
/// between the faulted and the clean ops; 75 ops keep the faulted share of
/// the best block steadier than 50 did.
const BLOCK_OPS: usize = 75;
/// Prepared pairings timed for the pairing calibration.
const CALIBRATION_PAIRINGS: usize = 200;
/// Largest gap allowed between the summed layer self times and the op
/// spans they partition.
const TRACE_TOLERANCE: f64 = 0.05;

const USAGE: &str =
    "usage: benchmark --workload <audit-clean|audit-chaos|storage-rw|epoch-registry> \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans PATH] [--smoke]";

/// What one op's output showed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Verified as correct.
    Clean,
    /// The checks flagged the server.
    Detected,
    /// No verdict: a call or decode failed for good.
    Failed,
}

/// Cumulative counters a workload exposes; a run reports the window's
/// difference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub attempts: u64,
    pub transient_faults: u64,
    pub reconnects: u64,
    pub shed: u64,
    pub chaos_faults: u64,
    pub audit_rounds: u64,
    pub escalations: u64,
    pub unresolved: u64,
    pub payload_bytes: u64,
    pub folded: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            attempts: self.attempts - before.attempts,
            transient_faults: self.transient_faults - before.transient_faults,
            reconnects: self.reconnects - before.reconnects,
            shed: self.shed - before.shed,
            chaos_faults: self.chaos_faults - before.chaos_faults,
            audit_rounds: self.audit_rounds - before.audit_rounds,
            escalations: self.escalations - before.escalations,
            unresolved: self.unresolved - before.unresolved,
            payload_bytes: self.payload_bytes - before.payload_bytes,
            folded: self.folded - before.folded,
        }
    }
}

/// One set-up world of a workload.
pub trait Workload {
    /// Runs op number `index` and checks its output.
    fn run_op(&mut self, index: u64) -> Verdict;
    fn counters(&self) -> Counters;
    /// Stops every thread the world started; returns server-side spans.
    fn tear_down(self: Box<Self>) -> Vec<trace::Span>;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Name {
    AuditClean,
    AuditChaos,
    StorageRw,
    EpochRegistry,
}

impl Name {
    /// Ops per second of each workload on the reference host (2-core
    /// x86-64 VM, one client thread). The window is `--seconds` times this
    /// many ops: a fixed amount of work, so a faster build finishes sooner
    /// rather than doing more (the audit server keeps every job, so more
    /// ops would also mean more memory).
    fn reference_rate(self) -> f64 {
        match self {
            Name::AuditClean => 70.0,
            Name::AuditChaos => 50.0,
            Name::StorageRw => 50.0,
            Name::EpochRegistry => 19.0,
        }
    }

    fn ops_for(self, seconds: f64) -> u64 {
        (seconds * self.reference_rate()).ceil().max(1.0) as u64
    }

    /// Whether `verdict` passes the run's checks. An honest server flagged
    /// as cheating never does. An op without a verdict counts as failed; it
    /// passes only where the workload injects faults, and nowhere else can
    /// one occur unless something broke.
    fn passes(self, verdict: Verdict) -> bool {
        match verdict {
            Verdict::Clean => true,
            Verdict::Detected => false,
            Verdict::Failed => self == Name::AuditChaos,
        }
    }
}

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: Name::AuditClean,
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        smoke: false,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "audit-clean" => Name::AuditClean,
                    "audit-chaos" => Name::AuditChaos,
                    "storage-rw" => Name::StorageRw,
                    "epoch-registry" => Name::EpochRegistry,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => out.spans = Some(value()?),
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    if out.spans.is_some() && !out.trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(out)
}

/// The measured window of one run.
struct Window {
    setup_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    /// The speed probe timed just before each op, in µs.
    probes_us: Vec<f64>,
    failed: u64,
    counters: Counters,
    secret_hits: u64,
    public_hits: u64,
    misses: u64,
    evictions: u64,
    spans: Vec<trace::Span>,
    /// Server handlers that ran while no client call was open.
    idle_handlers: usize,
    span_cost_ns: f64,
}

/// Sets the workload up, warms it, and measures the window.
fn measure<'a>(
    args: &Args,
    failures: &mut Vec<String>,
    mut make_world: impl FnMut(Option<Instant>) -> Result<Box<dyn Workload + 'a>, String>,
) -> Result<Window, String> {
    let origin = Instant::now();
    let trace_origin = args.trace.then_some(origin);
    let mut setup_s = Vec::new();
    let mut timed_setup = |trace| {
        let before = speed::probe_median_us(SETUP_PROBES);
        let t = Instant::now();
        let world = make_world(trace)?;
        let seconds = t.elapsed().as_secs_f64();
        let probe = (before + speed::probe_median_us(SETUP_PROBES)) / 2.0;
        setup_s.push(speed::to_reference(seconds, probe));
        Ok::<_, String>(world)
    };
    let mut world = timed_setup(trace_origin)?;

    let mut index = 0;
    for _ in 0..WARMUP_OPS {
        let verdict = world.run_op(index);
        if !args.workload.passes(verdict) {
            failures.push(format!("warm-up op {index}: {verdict:?}"));
        }
        index += 1;
    }
    let span_cost_ns = if args.trace {
        trace::span_cost_ns()
    } else {
        0.0
    };
    let before = world.counters();
    for c in [cache::global(), cache::secret()] {
        c.reset_counters();
    }
    let window_start_ns = trace::since(origin);
    if args.trace {
        trace::start_recording(origin);
    }

    let ops = args.workload.ops_for(args.seconds);
    // A traced run sets up once: a spare world would add its own spans.
    let spares = if args.trace { 0 } else { SETUPS as u64 - 1 };
    let mut latencies_ms = Vec::new();
    let mut probes_us = Vec::new();
    let mut failed = 0;
    let mut spares_done = 0;
    loop {
        let done = latencies_ms.len() as u64;
        while spares_done < spares && done >= (spares_done + 1) * ops / (spares + 1) {
            timed_setup(None)?.tear_down();
            spares_done += 1;
        }
        probes_us.push(speed::probe_us());
        let t = Instant::now();
        let verdict = trace::op(index, || world.run_op(index));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if verdict != Verdict::Clean {
            failed += 1;
        }
        if !args.workload.passes(verdict) && failures.len() < 10 {
            failures.push(format!("op {index}: {verdict:?}"));
        }
        index += 1;
        if latencies_ms.len() as u64 >= ops {
            break;
        }
    }

    let client_spans = trace::stop_recording();
    let counters = world.counters().since(before);
    let (public, secret) = (cache::global(), cache::secret());
    let (secret_hits, public_hits) = (secret.hits(), public.hits());
    let misses = public.misses() + secret.misses();
    let evictions = public.evictions() + secret.evictions();
    let server_spans = world
        .tear_down()
        .into_iter()
        .filter(|s| s.start_ns >= window_start_ns)
        .collect();
    let (spans, idle_handlers) = trace::adopt(client_spans, server_spans);
    Ok(Window {
        setup_s,
        latencies_ms,
        probes_us,
        failed,
        counters,
        secret_hits,
        public_hits,
        misses,
        evictions,
        spans,
        idle_handlers,
        span_cost_ns,
    })
}

/// Runs the workload's untimed pre-check, then measures it.
fn run_workload(args: &Args, failures: &mut Vec<String>) -> Result<Window, String> {
    let mut precheck = |r: Result<(), String>| {
        if let Err(e) = r {
            failures.push(format!("pre-check: {e}"));
        }
    };
    match args.workload {
        Name::AuditClean | Name::AuditChaos => {
            let chaos = args.workload == Name::AuditChaos;
            let sizes = if args.smoke {
                audit::SMOKE
            } else {
                audit::FULL
            };
            let inputs = audit::inputs(sizes, args.seed);
            precheck(audit::cheater_is_detected(
                &audit::inputs(audit::SMOKE, args.seed),
                chaos,
            ));
            measure(args, failures, |trace| {
                Ok(Box::new(audit::build_world(
                    &inputs,
                    Behavior::Honest,
                    chaos,
                    trace,
                )?))
            })
        }
        Name::StorageRw => {
            let sizes = if args.smoke {
                storage::SMOKE
            } else {
                storage::FULL
            };
            let inputs = storage::inputs(sizes, args.seed);
            precheck(storage::corruption_is_detected(&storage::inputs(
                storage::SMOKE,
                args.seed,
            )));
            measure(args, failures, |trace| {
                Ok(Box::new(storage::build_world(
                    &inputs,
                    Behavior::Honest,
                    trace,
                )?))
            })
        }
        Name::EpochRegistry => {
            let sizes = if args.smoke {
                registry::SMOKE
            } else {
                registry::FULL
            };
            let inputs = registry::inputs(sizes, args.seed);
            precheck(registry::tampering_is_detected(&registry::inputs(
                registry::SMOKE,
                args.seed,
            )));
            measure(args, failures, |_| {
                Ok(Box::new(registry::build_world(&inputs)))
            })
        }
    }
}

/// Median of `CALIBRATION_PAIRINGS` prepared pairings, in µs.
fn prepared_pairing_us() -> f64 {
    let q = VerifierPublic::from_identity("benchmark/calibration").q_prepared();
    let times: Vec<f64> = (0..CALIBRATION_PAIRINGS)
        .map(|i| {
            let p = hash_to_g1(&(i as u64).to_be_bytes()).to_affine();
            let t = Instant::now();
            std::hint::black_box(pairing_prepared(&p, &q));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Samples::new(times).median_or_zero()
}

type Metric = (&'static str, f64, &'static str);

/// The best block of `times_ms` cut into consecutive blocks of at least
/// [`BLOCK_OPS`] ops (one block when there are fewer): the highest block
/// throughput and the lowest block median, as `(ops/s, p50 ms)`.
fn best_block(times_ms: &[f64]) -> (f64, f64) {
    let n = times_ms.len();
    let count = (n / BLOCK_OPS).max(1);
    (0..count)
        .map(|b| &times_ms[b * n / count..(b + 1) * n / count])
        .map(|block| {
            let ops_per_s = block.len() as f64 / (block.iter().sum::<f64>() / 1e3);
            (ops_per_s, Samples::new(block.to_vec()).median_or_zero())
        })
        .fold((0.0, f64::INFINITY), |(r, p), (br, bp)| {
            (r.max(br), p.min(bp))
        })
}

fn end_to_end(w: &Window) -> Vec<Metric> {
    let (ops_per_s, p50_ms) = best_block(&speed::scale_to_reference(&w.latencies_ms, &w.probes_us));
    vec![
        (
            "setup_s",
            Samples::new(w.setup_s.clone()).median_or_zero(),
            "s",
        ),
        ("ops_per_s", ops_per_s, "1/s"),
        ("op_p50_ms", p50_ms, "ms"),
        // The share of ops that came back clean rather than the share that
        // failed, so the metric is never 0 and its bound is a share of it.
        (
            "op_ok_ratio",
            1.0 - w.failed as f64 / w.latencies_ms.len().max(1) as f64,
            "ok/attempted",
        ),
        (
            "peak_rss_mb",
            vm_hwm_kb().unwrap_or(0) as f64 / 1024.0,
            "MiB",
        ),
    ]
}

fn per_layer(w: &Window, b: &Breakdown, failures: &mut Vec<String>) -> Vec<Metric> {
    let n = w.latencies_ms.len().max(1) as f64;
    let c = w.counters;
    let ms = 1e-6;
    let us = 1e-3;
    let per_op = |x: f64| x / n;
    let op_ns = b.total_ns("op");
    let spans_per_op = b.durations.values().map(Vec::len).sum::<usize>() as f64 / n;
    let attributed: f64 = b.layer_self_ns.values().sum();
    if op_ns > 0.0 && (attributed - op_ns).abs() > TRACE_TOLERANCE * op_ns {
        failures.push(format!(
            "trace: layer self times sum to {attributed} ns, op spans to {op_ns} ns"
        ));
    }
    if b.orphans > 0 {
        failures.push(format!("trace: {} spans outside any op", b.orphans));
    }
    let fold_s = (b.total_ns("registry.fold") + b.total_ns("registry.epoch_verify")) * 1e-9;
    vec![
        ("trace.op_ms_p50", b.p50_ns("op") * ms, "ms"),
        ("trace.op_ms_p90", b.percentile_ns("op", 90.0) * ms, "ms"),
        ("trace.op_ms_per_op", per_op(op_ns) * ms, "ms"),
        (
            "trace.unattributed_ms_per_op",
            per_op(b.layer_ns("op")) * ms,
            "ms",
        ),
        ("trace.spans_per_op", spans_per_op, "count"),
        (
            "trace.overhead_pct",
            if op_ns > 0.0 {
                100.0 * spans_per_op * w.span_cost_ns / (op_ns / n)
            } else {
                0.0
            },
            "%",
        ),
        ("net.self_ms_per_op", per_op(b.layer_ns("net")) * ms, "ms"),
        (
            "net.calls_per_op",
            per_op(b.count("net.call") as f64),
            "count",
        ),
        ("net.call_self_p50_us", b.self_p50_ns("net.call") * us, "us"),
        (
            "net.payload_kib_per_op",
            per_op(c.payload_bytes as f64) / 1024.0,
            "KiB",
        ),
        (
            "net.reconnects_per_op",
            per_op(c.reconnects as f64),
            "count",
        ),
        ("net.shed", c.shed as f64, "count"),
        (
            "cloudsim.self_ms_per_op",
            per_op(b.layer_ns("cloudsim")) * ms,
            "ms",
        ),
        (
            "cloudsim.compute_ms_p50",
            b.p50_ns("cloudsim.compute") * ms,
            "ms",
        ),
        (
            "cloudsim.audit_ms_p50",
            b.p50_ns("cloudsim.audit") * ms,
            "ms",
        ),
        (
            "cloudsim.store_ms_p50",
            b.p50_ns("cloudsim.store") * ms,
            "ms",
        ),
        (
            "cloudsim.retrieve_us_p50",
            b.p50_ns("cloudsim.retrieve") * us,
            "us",
        ),
        (
            "cloudsim.unwaited_handlers_per_op",
            per_op(w.idle_handlers as f64),
            "count",
        ),
        (
            "resilience.self_ms_per_op",
            per_op(b.layer_ns("resilience")) * ms,
            "ms",
        ),
        (
            "resilience.attempts_per_op",
            per_op(c.attempts as f64),
            "count",
        ),
        (
            "resilience.transient_faults_per_op",
            per_op(c.transient_faults as f64),
            "count",
        ),
        (
            "resilience.audit_rounds_per_op",
            per_op(c.audit_rounds as f64),
            "count",
        ),
        (
            "resilience.escalations_per_op",
            per_op(c.escalations as f64),
            "count",
        ),
        (
            "resilience.unresolved_per_op",
            per_op(c.unresolved as f64),
            "count",
        ),
        (
            "chaos.faults_per_op",
            per_op(c.chaos_faults as f64),
            "count",
        ),
        ("core.self_ms_per_op", per_op(b.layer_ns("core")) * ms, "ms"),
        ("core.warrant_ms_p50", b.p50_ns("core.warrant") * ms, "ms"),
        (
            "core.verify_response_ms_p50",
            b.p50_ns("core.verify_response") * ms,
            "ms",
        ),
        (
            "core.decode_us_per_op",
            per_op(b.total_ns("core.decode")) * us,
            "us",
        ),
        (
            "core.sign_blocks_ms_p50",
            b.p50_ns("core.sign_blocks") * ms,
            "ms",
        ),
        (
            "core.block_verify_ms_p50",
            b.p50_ns("core.block_verify") * ms,
            "ms",
        ),
        (
            "registry.self_ms_per_op",
            per_op(b.layer_ns("registry")) * ms,
            "ms",
        ),
        (
            "registry.churn_ms_p50",
            b.p50_ns("registry.churn") * ms,
            "ms",
        ),
        (
            "registry.rotate_ms_p50",
            b.p50_ns("registry.rotate") * ms,
            "ms",
        ),
        (
            "registry.commitments_ms_p50",
            b.p50_ns("registry.commitments") * ms,
            "ms",
        ),
        (
            "registry.fold_us_per_audit",
            b.total_ns("registry.fold") * us / (c.folded.max(1) as f64),
            "us",
        ),
        (
            "registry.epoch_verify_ms_p50",
            b.p50_ns("registry.epoch_verify") * ms,
            "ms",
        ),
        (
            "registry.audits_per_s",
            if fold_s > 0.0 {
                c.folded as f64 / fold_s
            } else {
                0.0
            },
            "1/s",
        ),
        (
            "registry.prove_member_ms_p50",
            b.p50_ns("registry.prove_member") * ms,
            "ms",
        ),
        (
            "registry.verify_member_us_p50",
            b.p50_ns("registry.verify_member") * us,
            "us",
        ),
        (
            "host.probe_us",
            Samples::new(w.probes_us.clone()).median_or_zero(),
            "us",
        ),
        ("pairing.prepared_pairing_us", prepared_pairing_us(), "us"),
        (
            "pairing.secret_hits_per_op",
            per_op(w.secret_hits as f64),
            "count",
        ),
        (
            "pairing.public_hits_per_op",
            per_op(w.public_hits as f64),
            "count",
        ),
        ("pairing.misses_per_op", per_op(w.misses as f64), "count"),
        (
            "pairing.evictions_per_op",
            per_op(w.evictions as f64),
            "count",
        ),
    ]
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread unless the caller pins another count. Set before
    // any thread exists.
    if std::env::var_os("SECCLOUD_THREADS").is_none() {
        std::env::set_var("SECCLOUD_THREADS", "1");
    }

    let mut failures = Vec::new();
    let window = match run_workload(&args, &mut failures) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let breakdown = Breakdown::new(&window.spans);
    let metrics = if args.trace {
        per_layer(&window, &breakdown, &mut failures)
    } else {
        end_to_end(&window)
    };
    if let Some(path) = &args.spans {
        if let Err(e) = trace::write_jsonl(path, &window.spans) {
            failures.push(format!("writing {path}: {e}"));
        }
    }

    let ops = Samples::new(window.latencies_ms.clone());
    eprintln!(
        "workload {:?}, seed {}, {} ops in {} blocks, {:.2} s, set-ups {:.3?} s, threads {}",
        args.workload,
        args.seed,
        ops.len(),
        (ops.len() / BLOCK_OPS).max(1),
        window.latencies_ms.iter().sum::<f64>() / 1e3,
        window.setup_s,
        std::env::var("SECCLOUD_THREADS").unwrap_or_default(),
    );
    let (raw_ops_per_s, raw_p50_ms) = best_block(&window.latencies_ms);
    eprintln!("wall clock, best block: {raw_ops_per_s:.2} ops/s, p50 {raw_p50_ms:.3} ms");
    eprintln!(
        "wall clock, whole window: {:.2} ops/s, p50 {:.3} ms, {}; speed probe median {:.1} us \
         (reference {} us)",
        ops.len() as f64 * 1e3 / window.latencies_ms.iter().sum::<f64>(),
        ops.median_or_zero(),
        ops.tail()
            .map_or("no supported tail".into(), |(p, v)| format!(
                "p{p} {v:.3} ms with {} beyond",
                ops.beyond(p)
            )),
        Samples::new(window.probes_us.clone()).median_or_zero(),
        speed::REFERENCE_US,
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }

    let correct = failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.len(),
        window.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
