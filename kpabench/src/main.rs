//! The shared end-to-end benchmark of kpa.
//!
//! ```text
//! kpa-benchmark --workload <wire_hot|eval_cold|session_churn> --seed <n> --seconds <s> --trace <0|1>
//! kpa-benchmark --report [--seconds <s>]
//! ```
//!
//! A run generates the workload's stream from the seed, answers every
//! distinct item with the serial `Model` oracle, then splits the stream
//! among several worker processes, run one after another. Each worker
//! is this binary again (`--slice <k>`): it regenerates the
//! stream from the same seed, keeps its slice, reads the oracle's
//! digests on standard input, sets the program up, times the slice and
//! checks every answer. The parent takes rates and latency percentiles
//! within groups of workers and reports their median, or, where every
//! worker replays the same block of calls (`eval_cold`), over each
//! call's median latency across the workers, so no single process's
//! memory layout or burst of host noise decides a run. The last line of standard
//! output is the result object; the lines before it record provenance
//! and sample counts.
//!
//! `--report` runs every workload ten times (seeds 1 to 10), alternating
//! between them, and prints each end-to-end metric's median, quartiles
//! and extremes next to its bound from `BENCHMARK.json`.

mod answer;
mod plan;
mod stats;
mod worker;

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use kpa_assign::ProbAssignment;
use kpa_logic::Model;
use kpa_serve::json::{self, Value};

use crate::plan::{Plan, Workload};
use crate::stats::{
    median, percentile, quartiles, resolved, spread, tail_percentile, worse_by, Better,
};
use crate::worker::Report;

/// The benchmark's contract: metric names, units, directions and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Items one oracle `Model` answers before it is replaced by a fresh
/// one, which bounds the memory its formula arena takes on long streams.
const ORACLE_CHUNK: usize = 1500;

/// Items per run, spread evenly over the stream, that the plan-free
/// reference answers. Without the sample plan an `async-coins:11` item
/// takes about 98 ms on one core instead of about 5 ms, so the
/// reference cannot answer all of `eval_cold` within a run.
const REFERENCE_ITEMS: usize = 128;

/// Rounds of the steadiness report; round `k` runs every workload with
/// seed `k + 1`.
const REPORT_ROUNDS: u64 = 10;

#[derive(Debug, Clone)]
struct MetricSpec {
    name: String,
    unit: String,
    better: Better,
    bound: Option<f64>,
}

fn metric_specs(section: &str) -> Vec<MetricSpec> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists the metric section")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("metric field")
                    .to_string()
            };
            MetricSpec {
                name: s("name"),
                unit: s("unit"),
                better: Better::parse(&s("better")).expect("better is higher or lower"),
                bound: match m.get("bound") {
                    Some(Value::Float(b)) => Some(*b),
                    Some(Value::Int(b)) => Some(*b as f64),
                    _ => None,
                },
            }
        })
        .collect()
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    /// The slice of the stream this process runs as a worker.
    slice: Option<usize>,
    report: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: 10,
        trace: false,
        slice: None,
        report: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = Some(num(value()?)?),
            "--seconds" => a.seconds = num(value()?)?.max(1),
            "--trace" => a.trace = num(value()?)? != 0,
            "--slice" => a.slice = Some(num(value()?)? as usize),
            "--report" => a.report = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.report {
        if a.workload.is_some() || a.seed.is_some() || a.slice.is_some() {
            return Err(
                "--report runs every workload with seeds 1 to 10; it takes only --seconds".into(),
            );
        }
    } else if a.workload.is_none() {
        return Err("name a --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kpa-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.report, args.workload, args.slice) {
        (true, _, _) => steadiness_report(args.seconds),
        (false, Some(w), Some(slice)) => {
            run_worker(w, args.seed.unwrap_or(1), args.seconds, slice, args.trace)
        }
        (false, Some(w), None) => run(w, args.seed.unwrap_or(1), args.seconds, args.trace),
        (false, None, _) => unreachable!("parse_args requires a workload"),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("kpa-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One worker process: it runs the slice [`worker_slice`] gives it.
fn run_worker(
    w: Workload,
    seed: u64,
    seconds: u64,
    slice: usize,
    traced: bool,
) -> Result<ExitCode, String> {
    let part = worker_slice(w, seed, seconds, slice, traced)?;
    let report = worker::run(&part)?;
    print!("{}", report.to_text());
    Ok(ExitCode::SUCCESS)
}

/// A worker's slice of the stream, regenerated from the seed before any
/// clock starts, with the oracle's digests read from standard input,
/// one hex value per item in item order. The rest of the stream is
/// dropped here, so the worker's peak memory is the program's own.
fn worker_slice(
    w: Workload,
    seed: u64,
    seconds: u64,
    slice: usize,
    traced: bool,
) -> Result<Plan, String> {
    let mut plan = plan::generate(w, seed, plan::samples(w, seconds))?;
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let digests = text
        .lines()
        .map(|l| u64::from_str_radix(l, 16).map_err(|_| format!("bad digest {l:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    if digests.len() != plan.items.len() {
        return Err(format!(
            "{} digests for {} items",
            digests.len(),
            plan.items.len()
        ));
    }
    for (item, digest) in plan.items.values_mut().zip(digests) {
        item.expect = digest;
    }
    let n = plan.worker_count();
    if slice >= n {
        return Err(format!("slice {slice} of {n}"));
    }
    let mut part = plan.slice(n, slice);
    part.traced = traced;
    Ok(part)
}

/// Runs the worker process for one slice and reads its report back.
fn spawn_worker(
    w: Workload,
    seed: u64,
    seconds: u64,
    slice: usize,
    traced: bool,
    digests: &str,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name(), "--seed"])
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(seconds.to_string())
        .arg("--slice")
        .arg(slice.to_string())
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning a worker: {e}"))?;
    let text = digests.to_string();
    let mut stdin = child.stdin.take().expect("worker stdin is piped");
    let writer = std::thread::spawn(move || stdin.write_all(text.as_bytes()));
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    writer
        .join()
        .expect("plan writer panicked")
        .map_err(|e| format!("writing a worker's digests: {e}"))?;
    if !out.status.success() {
        return Err(format!("a worker exited with {}", out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Fills in every item's expected digest with the serial oracle, the
/// tree-walking `Model` at pool width 1 with the subterm and `Pr` memos
/// off, as in the differential suites, so no memo defect can reach the
/// expected answers. Every `stride`-th item, [`REFERENCE_ITEMS`] in all,
/// is answered with the sample plan off as well: a plan defect then
/// shows as failed operations on those items. Each chunk of items gets
/// a fresh `Model`; the oracle is not timed, so chunks are spread over
/// one thread per core. Returns the stride.
fn answer_with_oracle(plan: &mut Plan) -> Result<usize, String> {
    let stride = plan.items.len().div_ceil(REFERENCE_ITEMS).max(1);
    let mut by_target: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (&idx, item) in &plan.items {
        by_target.entry(item.target).or_default().push(idx);
    }
    let systems = by_target
        .keys()
        .map(|&t| Ok((t, plan.targets[t].build_with_assignment()?)))
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    // Chunks small enough that one target's items keep every core busy.
    let jobs: Vec<(usize, &[usize])> = by_target
        .iter()
        .flat_map(|(&t, idxs)| {
            let chunk = ORACLE_CHUNK.min(idxs.len().div_ceil(nproc()));
            idxs.chunks(chunk).map(move |c| (t, c))
        })
        .collect();
    let next = AtomicUsize::new(0);
    let items = &plan.items;
    let oracle_thread = || -> Result<Vec<(usize, u64)>, String> {
        let mut out = Vec::new();
        // A job counter only: it publishes no other data.
        while let Some(&(t, chunk)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (sys, assignment) = &systems[&t];
            let pa = ProbAssignment::new(sys, assignment.clone());
            let planned = Model::with_memos(&pa, false, false, true);
            let reference = Model::with_memos(&pa, false, false, false);
            for &idx in chunk {
                let model = if idx % stride == 0 {
                    &reference
                } else {
                    &planned
                };
                let kind = &items[&idx].kind;
                let answer = kpa_pool::with_threads(1, || answer::oracle(model, sys, kind))
                    .map_err(|e| format!("the oracle cannot answer {kind:?}: {e}"))?;
                out.push((idx, answer.digest()));
            }
        }
        Ok(out)
    };
    let answers: Vec<Result<Vec<(usize, u64)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc()).map(|_| scope.spawn(oracle_thread)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    for answer in answers {
        for (idx, digest) in answer? {
            plan.items.get_mut(&idx).expect("indexed item").expect = digest;
        }
    }
    Ok(stride)
}

/// Everything the workers of one pass measured, pooled.
#[derive(Debug, Default)]
struct Pooled {
    reports: Vec<Report>,
}

impl Pooled {
    fn samples(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .reports
            .iter()
            .flat_map(|r| r.samples.get(name).cloned().unwrap_or_default())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn median_of(&self, name: &str) -> f64 {
        percentile(&self.samples(name), 0.5).map_or(0.0, |(v, _)| v)
    }

    fn count(&self, name: &str) -> f64 {
        self.reports.iter().filter_map(|r| r.counts.get(name)).sum()
    }

    /// Sum of every counter whose name starts with `prefix` and ends
    /// with `suffix` (per-shard hit and miss counters).
    fn count_matching(&self, prefix: &str, suffix: &str) -> f64 {
        self.reports
            .iter()
            .flat_map(|r| &r.counts)
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    fn items(&self) -> f64 {
        self.reports.iter().map(|r| r.items as f64).sum()
    }

    fn qps(&self) -> f64 {
        self.items() / self.reports.iter().map(|r| r.timed_s).sum::<f64>()
    }

    fn tally(&self) -> answer::Tally {
        let mut t = answer::Tally::default();
        for r in &self.reports {
            t.merge(&r.tally);
        }
        t
    }

    fn info(&self, key: &str) -> String {
        self.reports
            .iter()
            .find_map(|r| r.info.get(key).cloned())
            .unwrap_or_else(|| "unknown".into())
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Splits a pass's workers, in order, into groups of at least
/// `MIN_SAMPLES` latency samples each (the last group takes any
/// remainder), so that every group's p99 has ten samples beyond it.
fn groups(p: &Pooled) -> Vec<Pooled> {
    let mut out: Vec<Pooled> = Vec::new();
    let mut open = Pooled::default();
    let mut n = 0;
    for r in &p.reports {
        n += r.samples.get("lat_us").map_or(0, Vec::len);
        open.reports.push(r.clone());
        if n >= plan::MIN_SAMPLES {
            out.push(std::mem::take(&mut open));
            n = 0;
        }
    }
    match out.last_mut() {
        Some(last) => last.reports.append(&mut open.reports),
        None => out.push(open),
    }
    out
}

/// Each call's median latency over the workers that replayed it, in
/// ascending order, and the rate the block runs at at those latencies.
/// A burst of host noise that hits a call in fewer than half of the
/// workers does not move these figures.
fn per_call_medians(p: &Pooled) -> (Vec<f64>, f64) {
    let runs: Vec<&Vec<f64>> = p
        .reports
        .iter()
        .filter_map(|r| r.samples.get("lat_us"))
        .collect();
    let calls = runs.iter().map(|v| v.len()).min().unwrap_or(0);
    let mut lat: Vec<f64> = (0..calls)
        .filter_map(|i| median(&runs.iter().map(|v| v[i]).collect::<Vec<_>>()))
        .collect();
    let rate = ratio(calls as f64, lat.iter().sum::<f64>() / 1e6);
    lat.sort_by(f64::total_cmp);
    (lat, rate)
}

/// The five end-to-end metrics of one pass, plus the sample counts
/// behind its percentiles. `eval_cold`'s workers all replay one block
/// of calls, so its rate and percentiles are taken over each call's
/// median latency across the workers ([`per_call_medians`]). The other
/// workloads' workers run different slices: there rates and latency
/// percentiles are taken within each group of workers and the run
/// reports their median, so one disturbed process cannot move a run's
/// figure by much.
fn end_to_end(w: Workload, p: &Pooled) -> Result<(BTreeMap<String, f64>, String), String> {
    let sets: Vec<(Vec<f64>, f64)> = match w {
        Workload::EvalCold => vec![per_call_medians(p)],
        _ => groups(p)
            .iter()
            .map(|g| (g.samples("lat_us"), g.qps()))
            .collect(),
    };
    let mut qps = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut counts = Vec::new();
    for (lat, rate) in sets {
        let (mid, _) = percentile(&lat, 0.5).ok_or("no latency samples")?;
        let (tail, beyond) = tail_percentile(&lat, 0.99, 10).ok_or_else(|| {
            format!(
                "{} latency samples leave fewer than 10 beyond the p99",
                lat.len()
            )
        })?;
        qps.push(rate);
        p50.push(mid);
        p99.push(tail);
        counts.push(format!("{}/{beyond}", lat.len()));
    }
    let setups: Vec<f64> = p.reports.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = p.reports.iter().map(|r| r.rss_kb as f64 / 1024.0).collect();
    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), median(&setups).unwrap_or(0.0));
    m.insert("qps".into(), median(&qps).unwrap_or(0.0));
    m.insert("latency_p50_us".into(), median(&p50).unwrap_or(0.0));
    m.insert("latency_p99_us".into(), median(&p99).unwrap_or(0.0));
    m.insert("peak_rss_mb".into(), median(&rss).unwrap_or(0.0));
    let round = |v: &[f64]| v.iter().map(|x| x.round()).collect::<Vec<_>>();
    // Every sample of the pass in one pool, host stalls included.
    let pooled_p99 = percentile(&p.samples("lat_us"), 0.99).map_or(0.0, |(v, _)| v);
    let note = format!(
        "samples groups={} samples/beyond_p99={} group_p50_us={:?} group_p99_us={:?} \
         group_qps={:?} pooled_p99_us={pooled_p99:.0} setups={} rss_processes={}",
        counts.len(),
        counts.join(","),
        round(&p50),
        round(&p99),
        round(&qps),
        setups.len(),
        rss.len(),
    );
    Ok((m, note))
}

/// The per-layer metrics of a traced pass, against the end-to-end
/// figures of the traced pass and of its untraced twin.
fn per_layer(
    w: Workload,
    traced: &Pooled,
    traced_e2e: &BTreeMap<String, f64>,
    plain_e2e: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let t = traced;
    let med = |k: &str| t.median_of(k);
    let c = |k: &str| t.count(&format!("c.{k}"));
    let per_query = |k: &str| ratio(c(k), t.items());
    let hit_ratio = |hit: f64, miss: f64| ratio(hit, hit + miss);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        // `+ 0.0` turns the -0.0 an empty float sum gives into 0.
        m.insert(k.to_string(), if v.is_finite() { v + 0.0 } else { 0.0 });
    };
    put("serve.client.encode_us", med("client_encode_us"));
    put("serve.client.decode_us", med("client_decode_us"));
    put("serve.server.transport_us", med("transport_us"));
    put("serve.server.accept_wait_us", med("accept_wait_us"));
    put("serve.json.parse_us", med("json_parse_us"));
    put(
        "serve.json.parse_ns_per_byte",
        med("json_parse_ns_per_byte"),
    );
    put("serve.json.encode_us", med("json_encode_us"));
    put("serve.proto.decode_us", med("proto_decode_us"));
    put("serve.proto.words_encode_us", med("words_encode_us"));
    put("serve.proto.reply_bytes", med("reply_bytes"));
    put("serve.session.handle_us", med("handle_us"));
    put("serve.session.load_hit_us", med("load_hit_us"));
    put("serve.session.load_build_us", med("load_build_us"));
    put(
        "serve.session.artifact_hit_ratio",
        hit_ratio(t.count("p.artifact_hits"), t.count("p.artifact_builds")),
    );
    put(
        "serve.session.artifacts_resident_mb",
        ratio(
            t.count("g.artifacts_resident_bytes"),
            t.reports.len() as f64,
        ) / (1 << 20) as f64,
    );
    put("serve.catalog.build_us", med("catalog_build_us"));
    put("logic.parse_us", med("logic_parse_us"));
    put("logic.compile_us", med("compile_us"));
    put(
        "logic.terms_dedup_ratio",
        hit_ratio(c("logic.terms_deduped"), c("logic.terms_interned")),
    );
    put("logic.eval_us", med("eval_us"));
    put(
        "logic.sat_cache_hit_ratio",
        hit_ratio(
            t.count_matching("c.logic.sat_cache.shard", ".hit"),
            t.count_matching("c.logic.sat_cache.shard", ".miss"),
        ),
    );
    put(
        "logic.subterm_memo_hit_ratio",
        hit_ratio(c("logic.subterm_memo.hit"), c("logic.subterm_memo.miss")),
    );
    put(
        "logic.pr_memo_hit_ratio",
        hit_ratio(c("logic.pr_memo_hit"), c("logic.pr_memo_miss")),
    );
    put("logic.gfp_iters_per_query", per_query("logic.gfp_iters"));
    put(
        "logic.memo_kb_per_query",
        ratio(t.count("g.memo_bytes"), t.items()) / 1024.0,
    );
    put("logic.artifact_build_ms", med("artifact_build_ms"));
    put("logic.artifact_mb", med("artifact_mb"));
    put(
        "assign.plan_hit_ratio",
        hit_ratio(
            c("logic.plan_hit") + c("assign.planned_space_hit"),
            c("logic.plan_fallback") + c("assign.planned_space_fallback"),
        ),
    );
    put(
        "assign.space_cache_hit_ratio",
        hit_ratio(c("assign.space_cache_hit"), c("assign.space_cache_miss")),
    );
    put(
        "measure.dense_queries_per_query",
        per_query("measure.dense_query"),
    );
    put(
        "measure.wide_blocks_per_query",
        per_query("measure.wide_blocks"),
    );
    put(
        "system.build_ms",
        ratio(
            t.count("h.system.build_ns.sum"),
            t.count("h.system.build_ns.count"),
        ) / 1e6,
    );
    put(
        "system.footprint_skipped_words_per_query",
        per_query("system.footprint_skipped_words"),
    );
    put("pool.tasks_per_query", per_query("pool.tasks"));
    put("pool.steals_per_query", per_query("pool.steals"));
    put(
        "pool.busy_share",
        hit_ratio(t.count("h.pool.busy_ns.sum"), t.count("h.pool.idle_ns.sum")),
    );
    put(
        "trace.overhead_pct",
        100.0 * ratio(plain_e2e["qps"] - traced_e2e["qps"], plain_e2e["qps"]),
    );
    let explained = match w {
        Workload::WireHot => [
            "client_encode_us",
            "json_parse_us",
            "proto_decode_us",
            "handle_us",
            "json_encode_us",
            "client_decode_us",
        ]
        .iter()
        .map(|k| med(k))
        .sum(),
        Workload::EvalCold => med("eval_us"),
        Workload::SessionChurn => ["accept_wait_us", "load_us", "query_rt_us"]
            .iter()
            .map(|k| med(k))
            .sum(),
    };
    put(
        "profile.coverage_pct",
        100.0 * ratio(explained, plain_e2e["latency_p50_us"]),
    );
    m
}

fn fmt_metrics(specs: &[MetricSpec], values: &BTreeMap<String, f64>) -> Result<String, String> {
    let parts = specs
        .iter()
        .map(|s| {
            let v = values
                .get(&s.name)
                .ok_or_else(|| format!("metric {} was not measured", s.name))?;
            Ok(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.name,
                if v.is_finite() { *v } else { 0.0 },
                s.unit
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// A fixed integer loop on one core, in milliseconds (median of five):
/// it reads how fast the host runs at the time, so a move in the
/// metrics can be set beside a move of the machine itself.
fn host_probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut rng = plan::Rng::new(7);
            let mut acc = 0u64;
            for _ in 0..20_000_000 {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository.
fn commit(root: &std::path::Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(root)
        // Never look for a repository above the checkout.
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// A digest of the program's sources, which names the code measured
/// even where the checkout is not a git repository.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let h = files.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, f| {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let h = answer::fnv(h, rel.as_bytes());
        answer::fnv(h, &std::fs::read(f).unwrap_or_default())
    });
    format!("{h:016x}")
}

fn run(w: Workload, seed: u64, seconds: u64, traced: bool) -> Result<ExitCode, String> {
    let wall = Instant::now();
    let mut plan = plan::generate(w, seed, plan::samples(w, seconds))?;
    let t = Instant::now();
    let stride = answer_with_oracle(&mut plan)?;
    let oracle_s = t.elapsed().as_secs_f64();

    let digests: String = plan
        .items
        .values()
        .map(|i| format!("{:016x}\n", i.expect))
        .collect();

    let probe_before = host_probe_ms();
    let mut plain = Pooled::default();
    let mut traced_pass = Pooled::default();
    for slice in 0..plan.worker_count() {
        let spawn = |traced| spawn_worker(w, seed, seconds, slice, traced, &digests);
        plain.reports.push(spawn(false)?);
        if traced {
            // Interleaved with the untraced workers, so drift over the
            // run touches both passes alike.
            traced_pass.reports.push(spawn(true)?);
        }
    }

    let mut tally = plain.tally();
    let mut identical = true;
    if traced {
        let t = traced_pass.tally();
        identical = plain
            .reports
            .iter()
            .zip(&traced_pass.reports)
            .all(|(a, b)| {
                a.tally.answers == b.tally.answers && a.tally.attempted == b.tally.attempted
            });
        tally.attempted += t.attempted;
        tally.failed += t.failed;
    }
    let probe_after = host_probe_ms();
    let (e2e, note) = end_to_end(w, &plain)?;
    let correct = tally.failed == 0 && identical;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    let frames = plain.count("g.frames");
    println!(
        "provenance workload={} seed={seed} seconds={seconds} traced={traced} nproc={} pool_width={} \
         commit={} source={} workers={} points={} words_per_set={} mean_request_bytes={:.1} \
         mean_reply_bytes={:.1} oracle_s={oracle_s:.3} reference_stride={stride} host_probe_ms={probe_before:.2}/{probe_after:.2} \
         answers_bit_identical={identical}",
        w.name(),
        nproc(),
        plain.info("pool_width"),
        commit(root),
        source_digest(root),
        plain.reports.len(),
        plain.info("points"),
        plain.info("words_per_set"),
        ratio(plain.count("g.request_bytes"), frames),
        ratio(plain.count("g.reply_bytes"), frames),
    );
    println!("{note}");
    for (k, v) in &e2e {
        println!("e2e {k} {v}");
    }
    let metrics = if traced {
        let (traced_e2e, _) = end_to_end(w, &traced_pass)?;
        let layers = per_layer(w, &traced_pass, &traced_e2e, &e2e);
        for (k, v) in &layers {
            println!("layer {k} {v}");
        }
        fmt_metrics(&metric_specs("per_layer"), &layers)?
    } else {
        fmt_metrics(&metric_specs("end_to_end"), &e2e)?
    };
    println!("wall_s {:.3}", wall.elapsed().as_secs_f64());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.attempted, tally.failed
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload [`REPORT_ROUNDS`] times, alternating between
/// them, and prints every run, then each end-to-end metric's median,
/// quartiles and extremes next to its bound. A metric whose spread, or
/// whose drift between the earlier and later half of the rounds,
/// exceeds its bound is flagged unresolved.
fn steadiness_report(seconds: u64) -> Result<ExitCode, String> {
    let specs = metric_specs("end_to_end");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut failures = 0u64;
    for round in 0..REPORT_ROUNDS {
        for w in Workload::ALL {
            let seed = round + 1;
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seconds"])
                .arg(seconds.to_string())
                .args(["--trace", "0", "--seed"])
                .arg(seed.to_string())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or("");
            let v = json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name()))?;
            failures += v.get("failed").and_then(Value::as_int).unwrap_or(1) as u64;
            let metrics = v.get("metrics").ok_or("result lacks metrics")?;
            let mut line = format!("run round={round} workload={} seed={seed}", w.name());
            for s in &specs {
                let x = match metrics.get(&s.name).and_then(|m| m.get("value")) {
                    Some(Value::Float(x)) => *x,
                    Some(Value::Int(x)) => *x as f64,
                    _ => return Err(format!("{} lacks {}", w.name(), s.name)),
                };
                line.push_str(&format!(" {}={x}", s.name));
                values
                    .entry((w.name(), s.name.clone()))
                    .or_default()
                    .push(x);
            }
            // Every run made is printed, not only the summary.
            println!("{line}");
        }
    }
    println!(
        "{:<14} {:<15} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "min", "max", "spread", "drift", "bound"
    );
    let mut unresolved = 0;
    for w in Workload::ALL {
        for s in &specs {
            let v = &values[&(w.name(), s.name.clone())];
            let [q1, q2, q3] = quartiles(v).unwrap_or([v[0]; 3]);
            let sp = spread(v).unwrap_or(0.0);
            // The later half of the rounds against the earlier half, the
            // way two sets of runs of one commit are compared.
            let (a, b) = v.split_at(v.len() / 2);
            let drift = match (median(a), median(b)) {
                (Some(a), Some(b)) => worse_by(s.better, a, b),
                _ => 0.0,
            };
            let bound = s.bound.unwrap_or(0.0);
            let ok = resolved(sp, bound) && drift <= bound;
            unresolved += usize::from(!ok);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
            println!(
                "{:<14} {:<15} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>7.4} {:>7.4} {:>6.3}  {}",
                w.name(),
                s.name,
                q2,
                q1,
                q3,
                lo,
                hi,
                sp,
                drift,
                bound,
                if ok { "steady" } else { "UNRESOLVED" }
            );
        }
    }
    println!(
        "rounds={REPORT_ROUNDS} seconds={seconds} failed_operations={failures} \
         unresolved={unresolved} nproc={}",
        nproc()
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(samples: usize) -> Report {
        let mut r = Report::default();
        r.samples.insert("lat_us".into(), vec![1.0; samples]);
        r
    }

    #[test]
    fn every_group_holds_enough_samples_for_its_p99() {
        let sizes = |reports: &[usize]| {
            let p = Pooled {
                reports: reports.iter().map(|&n| report(n)).collect(),
            };
            groups(&p)
                .iter()
                .map(|g| g.samples("lat_us").len())
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&[1111; 9]), vec![1111; 9]);
        assert_eq!(sizes(&[168, 168, 168, 168, 168, 170]), vec![1010]);
        assert_eq!(sizes(&[600, 600, 600, 600, 600]), vec![1200, 1800]);
        assert_eq!(sizes(&[500]), vec![500]);
    }

    #[test]
    fn a_burst_in_one_replay_does_not_move_the_per_call_figures() {
        let replay = |lat: [f64; 3]| {
            let mut r = Report::default();
            r.samples.insert("lat_us".into(), lat.to_vec());
            r
        };
        let p = Pooled {
            reports: vec![
                replay([100.0, 400.0, 300.0]),
                replay([9000.0, 400.0, 300.0]),
                replay([100.0, 9000.0, 200.0]),
            ],
        };
        let (lat, rate) = per_call_medians(&p);
        assert_eq!(lat, vec![100.0, 300.0, 400.0]);
        assert_eq!(rate, 3.0 / 800e-6);
    }
}
