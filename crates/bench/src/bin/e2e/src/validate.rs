//! `validate-hybrid` and `validate-uncertainty`: the closed loop of
//! Alg. 1, one simulated user waiting for each answer.
//!
//! Both runs take the same fixed number of iterations for a given
//! `--seconds`, so two commits are timed on the same iterations however
//! fast each is. The untraced run times `ValidationProcess::step` from
//! outside. The traced run steps a replica of `step` — the same public
//! calls in the same order, each inside a span — in lockstep with an
//! untraced `ValidationProcess`, requires the two to agree exactly, and
//! measures the kernels behind the blocking path (one hypothetical
//! inference, one E-step) in shadow calls off it.

use crate::report::Outcome;
use crate::stats::{self, ms};
use crate::trace::{self, Tracer};
use crate::{RunConfig, Scale};
use crf::bitset::Bitset;
use crf::entropy::{source_trust_probs, EntropyMode};
use crf::gibbs::GibbsScratch;
use crf::{CrfModel, GibbsSampler, Icrf, IcrfStats, VarId};
use factcheck::grounding::{grounding_changes, instantiate_grounding};
use factcheck::{IterationRecord, ProcessConfig, ValidationProcess};
use factdb::DatasetPreset;
use guidance::info_gain::{database_entropy_of, hypothetical_run};
use guidance::strategies::rank_by_uncertainty;
use guidance::{
    GuidanceContext, HybridStrategy, InfoGainConfig, IterationFeedback, SelectionStrategy,
    UncertaintyStrategy,
};
use oracle::{GroundTruthUser, User};
use std::sync::Arc;
use std::time::Instant;

/// Which guidance the simulated session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guidance {
    /// Hybrid information/source-driven roulette (Eq. 23): selection is
    /// ~90% of the iteration.
    Hybrid,
    /// Marginal-entropy ranking: selection is negligible and `Icrf::run`
    /// is the iteration.
    Uncertainty,
}

impl Guidance {
    fn workload(self) -> &'static str {
        match self {
            Guidance::Hybrid => "validate-hybrid",
            Guidance::Uncertainty => "validate-uncertainty",
        }
    }

    /// Iterations a run takes per second of `--seconds`: 36 and 300 at the
    /// default 40 s, which an untraced run on a 2-vCPU Xeon (Emerald
    /// Rapids, Δt ≈ 0.75 s and ≈ 90 ms) steps through in about 27 s each.
    fn iterations_per_second(self) -> f64 {
        match self {
            Guidance::Hybrid => 0.9,
            Guidance::Uncertainty => 7.5,
        }
    }

    /// The fixed number of iterations of a run.
    fn iterations(self, cfg: &RunConfig) -> usize {
        match cfg.scale {
            Scale::Paper => ((self.iterations_per_second() * cfg.seconds).round() as usize).max(2),
            Scale::Quick => 6,
        }
    }
}

/// How a workload's strategy is built from the seed, and whether its last
/// selection used the source-driven arm of the hybrid roulette.
struct Guide<S> {
    make: fn(u64) -> S,
    source_arm: fn(&S) -> bool,
}

/// Candidate pool, hypothetical EM budget and worker threads of the
/// optimised column of Fig. 2.
fn info_gain() -> InfoGainConfig {
    InfoGainConfig {
        pool_size: 6,
        hypothetical_em_iters: 1,
        threads: 2,
    }
}

fn process_config() -> ProcessConfig {
    ProcessConfig {
        icrf: evalkit::fast_icrf(),
        entropy_mode: EntropyMode::Approximate,
        ..ProcessConfig::default()
    }
}

/// What both the process and the replica must agree on, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iteration {
    claim: VarId,
    verdict: bool,
    skips: usize,
    grounding_changes: usize,
    entropy_bits: u64,
    error_rate_bits: u64,
    unreliable_ratio_bits: u64,
}

impl Iteration {
    fn of(r: &IterationRecord) -> Self {
        Iteration {
            claim: r.claim,
            verdict: r.verdict,
            skips: r.skips,
            grounding_changes: r.grounding_changes,
            entropy_bits: r.entropy.to_bits(),
            error_rate_bits: r.error_rate.to_bits(),
            unreliable_ratio_bits: r.unreliable_ratio.to_bits(),
        }
    }
}

/// `ValidationProcess::step`, call for call, with a span around each call
/// into a layer. Kept equal to the process by the lockstep check.
struct Replica<S> {
    icrf: Icrf,
    strategy: S,
    user: GroundTruthUser,
    config: ProcessConfig,
    grounding: Bitset,
    effort: usize,
}

impl<S: SelectionStrategy> Replica<S> {
    fn new(
        model: Arc<CrfModel>,
        strategy: S,
        user: GroundTruthUser,
        config: ProcessConfig,
    ) -> Self {
        assert!(
            config.confirmation_check_every.is_none(),
            "the replica does not mirror the confirmation check"
        );
        let mut icrf = Icrf::new(model, config.icrf.clone());
        icrf.run();
        let grounding = instantiate_grounding(&icrf);
        Replica {
            icrf,
            strategy,
            user,
            config,
            grounding,
            effort: 0,
        }
    }

    fn entropy(&self) -> f64 {
        database_entropy_of(&self.icrf, self.config.entropy_mode)
    }

    fn step(&mut self, tr: &mut Tracer, req: u64) -> Option<(Iteration, IcrfStats)> {
        let root = tr.begin_at("op.step", req, Instant::now());
        let out = self.step_inner(tr, req);
        tr.end_at(root, Instant::now());
        out
    }

    fn step_inner(&mut self, tr: &mut Tracer, req: u64) -> Option<(Iteration, IcrfStats)> {
        // sync_model
        if tr.span("crf.sync", req, || self.icrf.sync()) {
            tr.span("crf.icrf_run", req, || self.icrf.run());
            self.grounding = tr.span("core.grounding", req, || instantiate_grounding(&self.icrf));
        }
        // can_continue
        if !(self.effort < self.config.budget
            && self.icrf.n_labelled() < self.icrf.model().n_claims())
        {
            return None;
        }
        let entropy = tr.span("guidance.entropy", req, || self.entropy());
        if self.config.goal.satisfied(entropy, self.icrf.probs()) {
            return None;
        }

        let k = 1 + self.config.skip_fallbacks;
        let ranked = tr.span("guidance.rank", req, || {
            let ctx = GuidanceContext {
                icrf: &self.icrf,
                grounding: &self.grounding,
                entropy_mode: self.config.entropy_mode,
            };
            self.strategy.rank(&ctx, k)
        });
        if ranked.is_empty() {
            return None;
        }

        let (claim, verdict, skips) = tr.span("oracle.validate", req, || {
            let mut skips = 0;
            for attempt in 0..100 {
                let claim = ranked[attempt % ranked.len()];
                if self.icrf.labels()[claim.idx()].is_some() {
                    continue;
                }
                match self.user.validate(claim.idx()) {
                    Some(v) => return Some((claim, v, skips)),
                    None => skips += 1,
                }
            }
            None
        })?;

        let prev_prob = self.icrf.probs()[claim.idx()];
        let error_rate = if self.grounding.get(claim.idx()) {
            1.0 - prev_prob
        } else {
            prev_prob
        };

        let stats = tr.span("crf.icrf_run", req, || {
            self.icrf.set_label(claim, verdict);
            self.icrf.run()
        });
        self.effort += 1;

        let changes = tr.span("core.grounding", req, || {
            let next = instantiate_grounding(&self.icrf);
            let changes = grounding_changes(&self.grounding, &next);
            self.grounding = next;
            changes
        });

        let unreliable_ratio = tr.span("crf.source_trust", req, || {
            let trust = source_trust_probs(self.icrf.model(), &self.grounding);
            let unreliable = trust.iter().filter(|&&t| t < 0.5).count();
            unreliable as f64 / trust.len().max(1) as f64
        });

        tr.span("guidance.observe", req, || {
            self.strategy.observe(IterationFeedback {
                error_rate,
                unreliable_ratio,
                n_validated: self.icrf.n_labelled(),
                n_claims: self.icrf.model().n_claims(),
            })
        });

        let entropy = tr.span("guidance.entropy", req, || self.entropy());
        Some((
            Iteration {
                claim,
                verdict,
                skips,
                grounding_changes: changes,
                entropy_bits: entropy.to_bits(),
                error_rate_bits: error_rate.to_bits(),
                unreliable_ratio_bits: unreliable_ratio.to_bits(),
            },
            stats,
        ))
    }
}

/// One set-up: the corpus, the model, and the timings of the three steps.
struct Corpus {
    model: Arc<CrfModel>,
    truth: Vec<bool>,
    generate_s: f64,
    to_model_s: f64,
}

fn corpus(preset: DatasetPreset, seed: u64) -> Corpus {
    let mut cfg = preset.config();
    cfg.seed = seed;
    let t0 = Instant::now();
    let ds = factdb::synth::generate(&cfg);
    let t1 = Instant::now();
    let model = Arc::new(ds.db.to_crf_model().expect("generated corpus converts"));
    let t2 = Instant::now();
    Corpus {
        model,
        truth: ds.truth,
        generate_s: (t1 - t0).as_secs_f64(),
        to_model_s: (t2 - t1).as_secs_f64(),
    }
}

type Process<S> = ValidationProcess<S, GroundTruthUser>;

/// Run one `validate-*` workload.
pub fn run(guidance: Guidance, cfg: &RunConfig) -> Outcome {
    match guidance {
        Guidance::Hybrid => run_with(
            guidance,
            cfg,
            Guide {
                make: |seed| HybridStrategy::new(info_gain(), seed),
                source_arm: HybridStrategy::last_pick_was_source,
            },
        ),
        Guidance::Uncertainty => run_with(
            guidance,
            cfg,
            Guide {
                make: |_| UncertaintyStrategy::new(),
                source_arm: |_| false,
            },
        ),
    }
}

fn run_with<S: SelectionStrategy>(guidance: Guidance, cfg: &RunConfig, guide: Guide<S>) -> Outcome {
    let (preset, setups) = match cfg.scale {
        Scale::Paper => (DatasetPreset::Snopes, 3),
        Scale::Quick => (DatasetPreset::SnopesMini, 1),
    };
    let mut out = Outcome::default();

    // ---- Set up several times; the median is the set-up cost.
    let mut split = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        let c = corpus(preset, cfg.seed);
        let t = Instant::now();
        let process = ValidationProcess::new(
            c.model.clone(),
            (guide.make)(cfg.seed),
            GroundTruthUser::new(c.truth.clone()),
            process_config(),
        );
        let open_s = t.elapsed().as_secs_f64();
        split.0.push(c.generate_s);
        split.1.push(c.to_model_s);
        split.2.push(open_s);
        split.3.push(c.generate_s + c.to_model_s + open_s);
        last = Some((c, process));
    }
    let (c, process) = last.expect("at least one set-up");
    out.set("factdb.generate_s", stats::median(&split.0));
    out.set("factdb.to_model_s", stats::median(&split.1));
    out.set("core.process_new_s", stats::median(&split.2));
    out.set("setup_s", stats::median(&split.3));
    out.note(format!(
        "setup: {} claims, {} cliques, {} sources, largest component {}; setup_s median of {setups}: {:.3}",
        c.model.n_claims(),
        c.model.cliques().len(),
        c.model.n_sources(),
        process.last_em_stats().largest_component,
        stats::median(&split.3)
    ));

    let iterations = guidance.iterations(cfg);
    if cfg.traced {
        traced(guidance, guide, cfg, &c, process, iterations, &mut out);
    } else {
        untraced(cfg, &c, process, iterations, &mut out);
    }
    if let Some(mb) = stats::peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    out
}

/// The session's end state: every validated claim in order, and the final
/// probabilities.
fn final_digest<S: SelectionStrategy>(process: &Process<S>) -> u64 {
    let claims = process.history().iter().map(|r| u64::from(r.claim.0));
    let probs = process.icrf().probs().iter().map(|p| p.to_bits());
    crate::report::digest(claims.chain(probs))
}

/// The user replays the ground truth, and a validated claim keeps its
/// verdict in the grounding.
fn check_record(out: &mut Outcome, r: &IterationRecord, grounding: &Bitset, truth: &[bool]) {
    let c = r.claim.idx();
    out.check(
        r.verdict == truth[c] && grounding.get(c) == r.verdict && r.entropy.is_finite(),
        || {
            format!(
                "iteration {}: claim {c} verdict/grounding/entropy",
                r.iteration
            )
        },
    );
}

fn untraced<S: SelectionStrategy>(
    cfg: &RunConfig,
    c: &Corpus,
    mut process: Process<S>,
    iterations: usize,
    out: &mut Outcome,
) {
    let mut latency = Vec::new();
    for i in 1..=iterations {
        out.attempted += 1;
        let t = Instant::now();
        let rec = process.step().cloned();
        let dt = t.elapsed();
        match rec {
            Some(r) => {
                latency.push(ms(dt));
                check_record(out, &r, process.grounding(), &c.truth);
            }
            None => {
                out.check(false, || {
                    format!("step {i} returned None before its budget")
                });
                break;
            }
        }
    }
    out.digest = Some(final_digest(&process));
    if latency.is_empty() {
        return;
    }
    out.set_latency(&latency);
    out.note(format!(
        "iteration (seed {}): {}",
        cfg.seed,
        stats::describe(&latency)
    ));
    out.note(format!(
        "precision after {} iterations: {:.4}",
        latency.len(),
        evalkit::precision(process.grounding(), &c.truth)
    ));
}

fn traced<S: SelectionStrategy>(
    guidance: Guidance,
    guide: Guide<S>,
    cfg: &RunConfig,
    c: &Corpus,
    mut process: Process<S>,
    iterations: usize,
    out: &mut Outcome,
) {
    let mut tr = Tracer::new(Instant::now());
    let mut replica = tr.span("core.process_new", 0, || {
        Replica::new(
            c.model.clone(),
            (guide.make)(cfg.seed),
            GroundTruthUser::new(c.truth.clone()),
            process_config(),
        )
    });

    // A warm scratch for the shadow E-step, as `Icrf::run` keeps its own.
    let mut scratch = GibbsScratch::new();
    let shadow_estep = |icrf: &Icrf, scratch: &mut GibbsScratch| {
        GibbsSampler::new(icrf.model(), icrf.config().gibbs.clone()).run_scheduled(
            icrf.weights(),
            icrf.labels(),
            icrf.probs(),
            icrf.partition(),
            scratch,
        )
    };
    shadow_estep(&replica.icrf, &mut scratch);

    let mut process_ms = Vec::new();
    let mut em = Vec::new();
    let (mut source_arms, mut visits, mut estep_s) = (0usize, 0f64, 0f64);
    for i in 0..iterations {
        let req = i as u64 + 1;
        // Alternate which side runs first so neither always finds the
        // caches the other left behind.
        let mut timed_process = |process: &mut Process<S>| {
            let t = Instant::now();
            let rec = process.step().cloned();
            process_ms.push(ms(t.elapsed()));
            rec
        };
        let (mine, theirs) = if i % 2 == 0 {
            let mine = replica.step(&mut tr, req);
            (mine, timed_process(&mut process))
        } else {
            let theirs = timed_process(&mut process);
            (replica.step(&mut tr, req), theirs)
        };
        out.attempted += 1;
        let (Some((mine, stats)), Some(theirs)) = (mine, theirs) else {
            out.check(false, || format!("iteration {req} ended early"));
            break;
        };
        out.check(mine == Iteration::of(&theirs), || {
            format!("iteration {req}: replica {mine:?} != process {theirs:?}")
        });
        check_record(out, &theirs, process.grounding(), &c.truth);
        source_arms += usize::from((guide.source_arm)(&replica.strategy));
        em.push(stats);

        // Shadow calls off the blocking path: one hypothetical inference
        // (what guidance runs twice per candidate) and one E-step.
        let probe = {
            let ctx = GuidanceContext {
                icrf: &replica.icrf,
                grounding: &replica.grounding,
                entropy_mode: replica.config.entropy_mode,
            };
            rank_by_uncertainty(&ctx, 1).first().copied()
        };
        if let Some(claim) = probe {
            tr.span("shadow.hypothetical_run", req, || {
                hypothetical_run(
                    &replica.icrf,
                    claim,
                    true,
                    info_gain().hypothetical_em_iters,
                )
            });
        }
        let t = Instant::now();
        let g = tr.span("shadow.estep", req, || {
            shadow_estep(&replica.icrf, &mut scratch)
        });
        estep_s += t.elapsed().as_secs_f64();
        let unlabelled = replica.icrf.model().n_claims() - replica.icrf.n_labelled();
        visits += (g.sweeps * unlabelled) as f64;
    }
    out.check(
        replica.icrf.probs().iter().map(|p| p.to_bits()).eq(process
            .icrf()
            .probs()
            .iter()
            .map(|p| p.to_bits())),
        || "final probabilities differ between replica and process".into(),
    );

    out.digest = Some(final_digest(&process));
    let spans = tr.spans();
    let bd = trace::breakdown(spans, "op.step");
    let steps = bd.ops.max(1) as f64;
    out.set("guidance.rank_ms", bd.per_op_ms("guidance.rank"));
    out.set("crf.icrf_run_ms", bd.per_op_ms("crf.icrf_run"));
    out.set("core.grounding_ms", bd.per_op_ms("core.grounding"));
    out.set("crf.source_trust_ms", bd.per_op_ms("crf.source_trust"));
    out.set("guidance.entropy_ms", bd.per_op_ms("guidance.entropy"));
    out.set("unattributed_share", bd.share("op.step"));
    let mean = |name| stats::mean(&trace::durations_ms(spans, name));
    out.set("crf.hypothetical_run_ms", mean("shadow.hypothetical_run"));
    out.set("crf.estep_ms", mean("shadow.estep"));
    out.set("crf.gibbs_visits_per_s", visits / estep_s.max(1e-9));
    let replica_ms = bd.total.as_secs_f64() * 1e3;
    let untraced_ms: f64 = process_ms.iter().sum();
    // The user-facing latencies and rate, from the untraced process's steps.
    if !process_ms.is_empty() {
        out.set_latency(&process_ms);
        out.set(
            "throughput_per_s",
            1e3 * process_ms.len() as f64 / untraced_ms,
        );
    }
    out.set(
        "trace.overhead_share",
        (replica_ms - untraced_ms) / untraced_ms,
    );

    let sum = |f: fn(&IcrfStats) -> usize| em.iter().map(f).sum::<usize>() as f64;
    out.set("guidance.source_arm_share", source_arms as f64 / steps);
    out.set("crf.em_iterations", sum(|s| s.em_iterations) / steps);
    out.set("crf.gibbs_sweeps", sum(|s| s.gibbs_sweeps) / steps);
    out.set("crf.tron_iterations", sum(|s| s.tron_iterations) / steps);
    out.set(
        "crf.cache_incremental_share",
        sum(|s| s.cache_incremental) / sum(|s| s.em_iterations).max(1.0),
    );
    out.set(
        "crf.largest_component",
        em.iter().map(|s| s.largest_component).max().unwrap_or(0) as f64,
    );
    out.set(
        "crf.claim_slots_peak",
        replica.icrf.model().n_claims() as f64,
    );
    let uncertain = replica
        .icrf
        .labels()
        .iter()
        .zip(replica.icrf.probs())
        .filter(|(l, &p)| l.is_none() && p > 0.0 && p < 1.0)
        .count();
    out.set("core.uncertain_claims", uncertain as f64);
    out.set(
        "core.precision_final",
        evalkit::precision(process.grounding(), &c.truth),
    );

    for name in [
        "crf.sync",
        "guidance.entropy",
        "guidance.rank",
        "oracle.validate",
        "crf.icrf_run",
        "core.grounding",
        "crf.source_trust",
        "guidance.observe",
        "op.step",
    ] {
        out.note(format!(
            "layer {name:<18} self {:>9.3} ms/iteration  share {:.4}",
            bd.per_op_ms(name),
            bd.share(name)
        ));
    }
    out.note(format!(
        "shadow: hypothetical_run mean {:.2} ms, E-step mean {:.2} ms, {:.3e} Gibbs visits/s",
        mean("shadow.hypothetical_run"),
        mean("shadow.estep"),
        visits / estep_s.max(1e-9)
    ));
    out.note(format!(
        "lockstep: {} iterations, replica (traced) {:.1} ms vs process (untraced) {:.1} ms, \
         overhead {:+.2}%; {} uncertain claims left, precision {:.4}",
        bd.ops,
        replica_ms,
        untraced_ms,
        100.0 * (replica_ms - untraced_ms) / untraced_ms,
        uncertain,
        evalkit::precision(process.grounding(), &c.truth)
    ));
    trace::write_run(cfg, guidance.workload(), &[("main", &tr)], out);
}
