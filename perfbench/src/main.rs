//! The MOST serving benchmark.
//!
//! ```text
//! perfbench --workload <track_wire|batch_cut> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the program as shipped
//! (no benchmark spans); `--trace 1` is the traced run, which sends the
//! same seeded inputs through each layer's entry point and prints the
//! per-layer metrics.  Every run checks its outputs against an oracle
//! outside the timed window.  Human-readable lines come first; the last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod batch_cut;
mod layers;
mod pipeline;
mod stats;
mod trace;
mod track_wire;
mod walcheck;
mod world;

use std::path::PathBuf;
use std::time::Instant;

/// Engine set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Where runs keep their WAL directories and span files (removed or
/// overwritten by later runs; ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

/// A scratch directory unique to this process, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The outcome of one run: named metrics plus the oracle's verdict.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the JSON (sample counts, policies, checks).
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Set by a self-check that is not an operation (closure, counter
    /// determinism).
    pub broken: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds a latency pair `<name>_p50` / `<name>_p80`, both over every
    /// sample of the run, noting the sample count and how many lie beyond
    /// each.  The tail is the p80 because a 35 s `batch_cut` run holds
    /// only ~80 write steps: ~15 samples beyond a p80, fewer than ten
    /// beyond a p90.
    pub fn latency(&mut self, name: &str, samples: &[f64]) {
        self.metric(&format!("{name}_p50"), stats::median(samples), "ms");
        self.metric(&format!("{name}_p80"), stats::pct(samples, 0.8), "ms");
        self.note(format!(
            "{name}: {} samples, {} beyond the p50, {} beyond the p80",
            samples.len(),
            stats::beyond(samples, 0.5),
            stats::beyond(samples, 0.8)
        ));
    }

    /// Records an oracle check: `bad` failures among `of` compared items.
    /// Failures count against the run's attempted operations.
    pub fn check(&mut self, what: &str, bad: u64, of: u64) {
        self.failed += bad;
        self.note(format!("check {what}: {bad} bad of {of}"));
    }

    fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>14.4} {unit}");
        }
        for b in &self.broken {
            println!("# SELF-CHECK FAILED: {b}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.broken.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Builds once and times it.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let built = build();
    (built, t0.elapsed().as_secs_f64())
}

/// `setup_s`: the median of the run's first set-up and `SETUPS - 1` more,
/// each dropped at once.  The extra set-ups come after the measured
/// window and its checks, so they neither share the window's memory
/// peak nor its heap.
pub fn setup_seconds<T>(first: f64, mut build: impl FnMut() -> T) -> f64 {
    let mut secs = vec![first];
    for _ in 1..SETUPS {
        secs.push(timed(&mut build).1);
    }
    stats::median(&secs)
}

/// A progress line on standard error, stamped with the process's age.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let age = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!(
        "[perfbench {age:7.2}s {:6.1} MB] {what}",
        stats::peak_rss_mb()
    );
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    progress("start");
    let w = world::World::new(args.seed);
    progress("world generated");
    let report = match (args.workload.as_str(), args.trace) {
        ("track_wire", false) => track_wire::run(&w, args.seconds),
        ("track_wire", true) => track_wire::traced(&w),
        ("batch_cut", false) => batch_cut::run(&w, args.seconds),
        ("batch_cut", true) => batch_cut::traced(&w),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.print();
}
