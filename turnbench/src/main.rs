//! One benchmark for the four Turn queue execution modes.
//!
//! ```text
//! cargo run --release --manifest-path turnbench/Cargo.toml -- \
//!     --workload pairs|backlog|handoff --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run repeats `ROUNDS` rounds; a round gives every mode one timed
//! window (in a seeded order), so drift on a shared host reaches all modes
//! alike, and every reported figure is a median over rounds. With
//! `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer ledger, measured from
//! extra traced windows and knob variants (spans go to
//! `turnbench/out/spans-<workload>-seed<seed>.jsonl`). The process exits
//! non-zero if any item was lost, duplicated or reordered, any call failed,
//! or anything panicked. See `turnbench/README.md`.

mod alloc;
mod check;
mod ledger;
mod queues;
#[cfg(test)]
mod selftest;
mod sync;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use queues::{Knob, Mode, ViaHandle};
use trace::{Span, SpanIds};
use workload::{Local, Plan, Window, Workload, SAMPLE_CAP, THREADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Rounds per run: every reported figure is a median over them.
const ROUNDS: usize = 10;
/// Rounds of a traced run. Each also runs every mode untraced (for the
/// tracing overhead) and every knob variant, with the same window length
/// as an untraced run, so fewer rounds keep its duration in bounds.
const TRACED_ROUNDS: usize = 4;
/// Items each thread enqueues per backlog cycle (log2), as in the paper's
/// burst benchmark.
const DEFAULT_BURST_LOG2: u32 = 18;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// xorshift64*: the seeded source of every input choice.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(check::mix(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Median of `v` (mean of the middle two for an even count; 0 if empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    burst_log2: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut burst_log2 = DEFAULT_BURST_LOG2;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("pairs, backlog or handoff"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("between 0 and 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--burst-log2" => {
                burst_log2 = value.parse().map_err(|_| bad("an integer"))?;
                if !(1..=22).contains(&burst_log2) {
                    return Err(bad("between 1 and 22"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        burst_log2,
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A finite number in JSON (non-finite values cannot occur in a valid
/// run; they print as 0 rather than break the line).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn git_rev() -> String {
    let dir = env!("CARGO_MANIFEST_DIR");
    let root = std::path::Path::new(dir)
        .parent()
        .unwrap_or(std::path::Path::new(dir));
    let ceiling = root.parent().unwrap_or(root);
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build and host this run measured: printed first and written at the
/// head of the span file, so two outputs are compared only when these agree.
fn stamp(args: &Args) -> String {
    let features: Vec<String> = [
        ("telemetry", cfg!(feature = "telemetry")),
        ("node-pool", cfg!(feature = "node-pool")),
        ("fastpath", cfg!(feature = "fastpath")),
        ("segments", cfg!(feature = "segments")),
        ("seqcst", cfg!(feature = "seqcst")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(f, _)| json_str(f))
    .collect();
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"schema\":\"turnbench/1\",\"git_rev\":{},\"features\":[{}],\"telemetry_enabled\":{},\"seqcst_build\":{},\"hardware_threads\":{},\"cpu_model\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{},\"rounds\":{},\"sample_every\":{},\"backlog_burst\":{}}}",
        json_str(&git_rev()),
        features.join(","),
        turnq_repro::telemetry::ENABLED,
        turnq_sync::SEQCST_BUILD,
        hardware_threads,
        json_str(&cpu_model()),
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        THREADS,
        rounds(args),
        workload::SAMPLE_EVERY,
        1u64 << args.burst_log2,
    )
}

fn rounds(args: &Args) -> usize {
    if args.trace {
        TRACED_ROUNDS
    } else {
        ROUNDS
    }
}

/// Run one window of `mode` built with `knob`.
fn window(
    plan: &Plan,
    knob: Knob,
    locals: &mut [Local],
    sort_buf: &mut Vec<u32>,
    index: u64,
) -> Window {
    let ids = [SpanIds::new(index, 0), SpanIds::new(index, 1)];
    use queues::{build_bounded, build_seg, build_sharded, build_turn};
    match (plan.mode, knob) {
        (Mode::Turn, Knob::Handle) => workload::run(plan, locals, sort_buf, ids, || {
            ViaHandle(build_turn(Knob::Default))
        }),
        (Mode::Turn, k) => workload::run(plan, locals, sort_buf, ids, || build_turn(k)),
        (Mode::Seg, Knob::Handle) => workload::run(plan, locals, sort_buf, ids, || {
            ViaHandle(build_seg(Knob::Default))
        }),
        (Mode::Seg, k) => workload::run(plan, locals, sort_buf, ids, || build_seg(k)),
        (Mode::Bounded, _) => workload::run(plan, locals, sort_buf, ids, build_bounded),
        (Mode::Sharded, k) => workload::run(plan, locals, sort_buf, ids, || build_sharded(k)),
    }
}

/// Every window of one run.
struct Run {
    /// (mode, knob, traced, window)
    windows: Vec<(Mode, Knob, bool, Window)>,
    spans: Vec<Span>,
}

fn measure(args: &Args) -> Run {
    let epoch = Instant::now();
    let mut locals: Vec<Local> = (0..THREADS).map(|t| Local::new(t, epoch)).collect();
    let mut sort_buf: Vec<u32> = Vec::with_capacity(THREADS * SAMPLE_CAP);
    let mut rng = Rng::new(args.seed);
    let window_len = Duration::from_secs_f64(args.seconds / (ROUNDS * Mode::ALL.len()) as f64);
    let mut run = Run {
        windows: Vec::new(),
        spans: Vec::new(),
    };
    let mut index = 0u64;
    for round in 0..rounds(args) {
        let round_start = Instant::now();
        let round_id = (round as u64 + 1) << 56;
        let mut order = Mode::ALL;
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut jobs: Vec<(Mode, Knob, bool, Duration)> = Vec::new();
        for mode in order {
            let passes: &[bool] = match (args.trace, round % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            jobs.extend(passes.iter().map(|&t| (mode, Knob::Default, t, window_len)));
        }
        if args.trace {
            jobs.extend(
                ledger::KNOBS
                    .iter()
                    .map(|&(m, k)| (m, k, false, window_len)),
            );
        }
        for (mode, knob, traced, len) in jobs {
            index += 1;
            let plan = Plan {
                workload: args.workload,
                mode,
                window: len,
                burst: if mode == Mode::Bounded {
                    // The ring holds at most its capacity: each thread's
                    // burst is half of it, so the backlog fills the ring.
                    (turnq_repro::bounded::DEFAULT_CAPACITY as u64 / THREADS as u64)
                        .min(1 << args.burst_log2)
                } else {
                    1 << args.burst_log2
                },
                seed: args.seed ^ index,
                salt: check::mix(args.seed.wrapping_add(index)),
                traced,
            };
            let start = Instant::now();
            let w = window(&plan, knob, &mut locals, &mut sort_buf, index);
            if traced {
                run.spans.push(Span {
                    id: SpanIds::new(index, 0).window,
                    parent: round_id,
                    name: "window",
                    mode,
                    thread: trace::MAIN,
                    start_ns: (start - epoch).as_nanos() as u64,
                    dur_ns: start.elapsed().as_nanos() as u64,
                });
                for l in &locals {
                    run.spans.extend_from_slice(&l.spans);
                }
            }
            eprintln!(
                "window {index} {} knob={} traced={traced}: {:.4} Mops/s p50 {:.1} ns p99 {:.1} ns setup {:.2} ms heap {:.3} MB failed {}",
                mode.name(),
                knob.name(),
                w.mops(),
                w.lat.p50,
                w.lat.p99,
                (w.build + w.warmup).as_secs_f64() * 1e3,
                w.heap_peak as f64 / 1e6,
                w.failed
            );
            run.windows.push((mode, knob, traced, w));
        }
        if args.trace {
            run.spans.push(Span {
                id: round_id,
                parent: 0,
                name: "round",
                mode: Mode::Turn,
                thread: trace::MAIN,
                start_ns: (round_start - epoch).as_nanos() as u64,
                dur_ns: round_start.elapsed().as_nanos() as u64,
            });
        }
    }
    run
}

/// The end-to-end metrics of an untraced run, plus unguarded detail.
fn end_to_end(run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    let plain = |mode: Mode| -> Vec<&Window> {
        run.windows
            .iter()
            .filter(|(m, k, t, _)| *m == mode && *k == Knob::Default && !t)
            .map(|(_, _, _, w)| w)
            .collect()
    };
    let med = |ws: &[&Window], f: &dyn Fn(&Window) -> f64| {
        let mut v: Vec<f64> = ws.iter().map(|w| f(w)).collect();
        median(&mut v)
    };
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    // Set-up of one round: every mode's build, spawn, claim and warm-up.
    let mut setup: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            Mode::ALL
                .iter()
                .filter_map(|&m| plain(m).get(r).map(|w| (w.build + w.warmup).as_secs_f64()))
                .sum()
        })
        .collect();
    metrics.push(Metric {
        name: "setup_s".into(),
        value: median(&mut setup),
        unit: "s",
    });
    for mode in Mode::ALL {
        let ws = plain(mode);
        let name = |m: &str| format!("{}.{m}", mode.name());
        metrics.push(Metric {
            name: name("mops"),
            value: med(&ws, &Window::mops),
            unit: "Mops/s",
        });
        metrics.push(Metric {
            name: name("op_p50_ns"),
            value: med(&ws, &|w| w.lat.p50),
            unit: "ns",
        });
        metrics.push(Metric {
            name: name("op_p99_ns"),
            value: med(&ws, &|w| w.lat.p99),
            unit: "ns",
        });
        if mode != Mode::Bounded {
            metrics.push(Metric {
                name: name("heap_peak_mb"),
                value: med(&ws, &|w| w.heap_peak as f64 / 1e6),
                unit: "MB",
            });
        }
        detail.push(Metric {
            name: name("op_p999_ns"),
            value: med(&ws, &|w| w.lat.p999),
            unit: "ns",
        });
        detail.push(Metric {
            name: name("op_max_ns"),
            value: med(&ws, &|w| w.lat.max),
            unit: "ns",
        });
        detail.push(Metric {
            name: name("samples"),
            value: ws.iter().map(|w| w.lat.samples as f64).sum(),
            unit: "count",
        });
    }
    (metrics, detail)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("turnbench: {e}");
            eprintln!(
                "usage: turnbench --workload pairs|backlog|handoff --seed N --seconds S --trace 0|1 [--burst-log2 K]"
            );
            std::process::exit(2);
        }
    };
    // A panic in a worker would leave its partner waiting for it for ever:
    // end the run at once, without a result line.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report(info);
        std::process::exit(1);
    }));
    let header = stamp(&args);
    println!("{header}");

    let standalone = args.trace.then(ledger::standalone);
    let run = measure(&args);

    let attempted: u64 = run.windows.iter().map(|(_, _, _, w)| w.attempted).sum();
    let failed: u64 = run.windows.iter().map(|(_, _, _, w)| w.failed).sum();
    for (mode, knob, traced, w) in &run.windows {
        if w.failed > 0 {
            eprintln!(
                "turnbench: {} {} knob={} traced={traced}: {} failed of {} attempted",
                args.workload.name(),
                mode.name(),
                knob.name(),
                w.failed,
                w.attempted
            );
        }
    }

    let metrics = if let Some(s) = standalone {
        let runs: Vec<ledger::ModeRuns> = Mode::ALL
            .iter()
            .map(|&mode| {
                let of = |knob: Knob, traced: bool| -> Vec<&Window> {
                    run.windows
                        .iter()
                        .filter(|(m, k, t, _)| *m == mode && *k == knob && *t == traced)
                        .map(|(_, _, _, w)| w)
                        .collect()
                };
                ledger::ModeRuns {
                    mode,
                    plain: of(Knob::Default, false),
                    traced: of(Knob::Default, true),
                    knobs: run
                        .windows
                        .iter()
                        .filter(|(m, k, _, _)| *m == mode && *k != Knob::Default)
                        .map(|(_, k, _, w)| (*k, w))
                        .collect(),
                }
            })
            .collect();
        let path: PathBuf = [
            env!("CARGO_MANIFEST_DIR"),
            "out",
            &format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed),
        ]
        .iter()
        .collect();
        let run_id = format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        );
        if let Err(e) = trace::write(&path, &header, &run_id, &run.spans) {
            eprintln!("turnbench: writing {}: {e}", path.display());
        }
        ledger::per_layer(&runs, &s)
    } else {
        let (metrics, detail) = end_to_end(&run);
        for m in &detail {
            println!("detail {} {:.4} {}", m.name, m.value, m.unit);
        }
        metrics
    };
    for m in &metrics {
        println!("metric {} {:.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
