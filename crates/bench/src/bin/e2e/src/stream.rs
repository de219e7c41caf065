//! `stream-serve`: a `TruthServer` over a crash-safe `DurableChecker`
//! ingesting new claims while a reader queries it.
//!
//! Two load threads: the writer (this thread) ingests arrivals, waits for
//! each to be acknowledged durable, and counts it visible once it is also
//! published; the reader issues query rounds (`truth_batch(8)`,
//! `top_k_uncertain(10)`, `source_trust`). After an untimed warm-up that
//! fills the retention window, both run open loops timed from each
//! operation's due time. The writer then runs a closed loop for its
//! capacity, after which the server is dropped (the crash model) and
//! `DurableChecker::recover` must rebuild exactly the live state.
//!
//! The traced run feeds the identical deltas to a volatile
//! `StreamingChecker` twin (the non-durable share of an ingest), and
//! checkpoints and publishes explicitly at the points the untraced run's
//! policies take them, so each is its own span.

use crate::report::Outcome;
use crate::stats::{self, ms, Pacer};
use crate::trace::{self, Tracer};
use crate::{RunConfig, Scale};
use crf::{CrfModel, ModelDelta, ModelHandle, Stance, VarId};
use durability::{checkpoint, CheckpointKind, DiskFs, MemFs, Storage, SyncPolicy};
use factdb::dist::Zipf;
use factdb::DatasetPreset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::{PublishPolicy, QueryHandle, TruthServer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use streamcheck::{
    DurabilityConfig, DurableChecker, OnlineEmConfig, RetentionPolicy, StreamingChecker,
};

/// Documents (and cliques) per arriving claim — the §7 arrival shape.
const DOCS_PER_ARRIVAL: usize = 3;

struct Params {
    preset: DatasetPreset,
    setups: usize,
    write_rate: f64,
    read_rate: f64,
    /// Arrivals the writer issues in its open loop, then in its closed
    /// loop; the reader runs its open loop until both are done.
    open_arrivals: usize,
    closed_arrivals: usize,
    window: u64,
    compact_threshold: f64,
    checkpoint_every: u64,
    full_every: u64,
    disk: bool,
}

impl Params {
    /// Compactions a run must reach.
    const MIN_COMPACTIONS: u64 = 2;

    fn new(cfg: &RunConfig) -> Self {
        let paper = Params {
            preset: DatasetPreset::Snopes,
            setups: 3,
            // The open loop lasts `--seconds`: 2000 arrivals at 40 s.
            write_rate: 50.0,
            read_rate: 500.0,
            open_arrivals: (50.0 * cfg.seconds).round() as usize,
            closed_arrivals: 500,
            // With the 4856 base claims live throughout, this window and
            // threshold compact after 1096 arrivals and then every 596,
            // each compaction forcing a full checkpoint: after the 500
            // warm-up arrivals, three times in a 40 s open loop and once
            // more in the closed loop.
            window: 500,
            compact_threshold: 0.1,
            checkpoint_every: 250,
            full_every: 4,
            disk: true,
        };
        match cfg.scale {
            Scale::Paper => paper,
            Scale::Quick => Params {
                preset: DatasetPreset::SnopesMini,
                setups: 1,
                write_rate: 500.0,
                read_rate: 1000.0,
                open_arrivals: 120,
                closed_arrivals: 40,
                window: 20,
                checkpoint_every: 25,
                disk: false,
                ..paper
            },
        }
    }

    fn retention(&self) -> RetentionPolicy {
        RetentionPolicy {
            compact_threshold: self.compact_threshold,
            ..RetentionPolicy::sliding_window(self.window)
        }
    }

    /// The durability policy. The traced run turns the automatic
    /// checkpoints off and takes them itself at the same points.
    fn durability(&self, traced: bool) -> DurabilityConfig {
        DurabilityConfig {
            sync_policy: SyncPolicy::GroupCommit {
                window_micros: 2000,
                max_batch: 64,
            },
            checkpoint_every: (!traced).then_some(self.checkpoint_every),
            checkpoint_on_compact: !traced,
            full_every: self.full_every,
        }
    }
}

/// Storage that counts the bytes the log and the checkpoints write.
struct Counting {
    inner: Arc<dyn Storage>,
    wal_bytes: AtomicU64,
    full: Mutex<Vec<u64>>,
    incr: Mutex<Vec<u64>>,
}

impl Counting {
    fn new(inner: Arc<dyn Storage>) -> Self {
        Counting {
            inner,
            wal_bytes: AtomicU64::new(0),
            full: Mutex::new(Vec::new()),
            incr: Mutex::new(Vec::new()),
        }
    }

    /// Forget what set-up wrote.
    fn reset(&self) {
        self.wal_bytes.store(0, Ordering::Relaxed);
        self.full.lock().expect("counter lock").clear();
        self.incr.lock().expect("counter lock").clear();
    }
}

impl Storage for Counting {
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        if name.starts_with("wal-") {
            self.wal_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        self.inner.append(name, data)
    }
    fn truncate(&self, name: &str, len: u64) -> std::io::Result<()> {
        self.inner.truncate(name, len)
    }
    fn sync(&self, name: &str) -> std::io::Result<()> {
        self.inner.sync(name)
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        let sizes = match checkpoint::parse_name(name) {
            Some((_, CheckpointKind::Full)) => Some(&self.full),
            Some((_, CheckpointKind::Increment)) => Some(&self.incr),
            None => None,
        };
        if let Some(s) = sizes {
            s.lock().expect("counter lock").push(data.len() as u64);
        }
        self.inner.write_atomic(name, data)
    }
    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.inner.remove(name)
    }
}

/// The arrival generator: each arrival is one new claim with
/// [`DOCS_PER_ARRIVAL`] documents. Sources are drawn Zipf(1.05) over the
/// base sources that have claims (those never retire, so every reference
/// stays valid), ranked in an order drawn from the seed: a few sources
/// dominate the stream, and they are rarely the corpus's hubs, whose
/// thousands of claims each publish would recolor. Document features are
/// copied from random base documents; stances follow the source's latent
/// trust.
struct Arrivals {
    base: CrfModel,
    cited: Vec<u32>,
    zipf: Zipf,
    trust: Vec<f64>,
    rng: SmallRng,
}

impl Arrivals {
    fn new(base: CrfModel, trust: Vec<f64>, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xa77e_55a1);
        let mut cited: Vec<u32> = (0..base.n_sources() as u32)
            .filter(|&s| base.n_claims_of_source(s) > 0)
            .collect();
        for i in (1..cited.len()).rev() {
            cited.swap(i, rng.gen_range(0..=i));
        }
        Arrivals {
            zipf: Zipf::new(cited.len(), 1.05),
            base,
            cited,
            trust,
            rng,
        }
    }

    fn next(&mut self, checker: &StreamingChecker) -> ModelDelta {
        let mut delta = checker.delta();
        let claim = delta.add_claim();
        let truth = self.rng.gen_bool(0.4);
        for _ in 0..DOCS_PER_ARRIVAL {
            let source = self.cited[self.zipf.sample(&mut self.rng)];
            let doc = self.rng.gen_range(0..self.base.n_docs()) as u32;
            let theta = self.trust.get(source as usize).copied().unwrap_or(0.5);
            let correct = self.rng.gen_bool((theta * 0.95).clamp(0.01, 0.99));
            let stance = if correct == truth {
                Stance::Support
            } else {
                Stance::Refute
            };
            let d = delta
                .add_document(self.base.doc_feature_row(doc))
                .expect("base documents have the model's feature width");
            delta.add_clique(claim, d, source, stance);
        }
        delta
    }
}

/// One set-up: the corpus, the model, the durable checker and the server.
struct Setup {
    server: TruthServer<DurableChecker>,
    storage: Arc<Counting>,
    twin: Option<StreamingChecker>,
    arrivals: Arrivals,
    /// Seconds to generate the corpus, convert it to a model, create the
    /// durable checker, and start the server.
    times: [f64; 4],
}

fn setup(p: &Params, cfg: &RunConfig, dir: &Path) -> Result<Setup, String> {
    if p.disk {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut synth = p.preset.config();
    synth.seed = cfg.seed;
    let t0 = Instant::now();
    let ds = factdb::synth::generate(&synth);
    let t1 = Instant::now();
    let model = ds.db.to_crf_model().map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    // Outside the timed set-up: the generator's and the twin's copies.
    let arrivals = Arrivals::new(model.clone(), ds.source_trust, cfg.seed);
    let twin = cfg.traced.then(|| {
        StreamingChecker::try_new(ModelHandle::new(model.clone()), OnlineEmConfig::default())
            .expect("default online EM config is valid")
            .with_retention(p.retention())
    });
    let t3 = Instant::now();
    let inner: Arc<dyn Storage> = if p.disk {
        Arc::new(DiskFs::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?)
    } else {
        Arc::new(MemFs::new())
    };
    let storage = Arc::new(Counting::new(inner));
    let durable = DurableChecker::create(
        storage.clone(),
        ModelHandle::new(model),
        OnlineEmConfig::default(),
        p.retention(),
        p.durability(cfg.traced),
    )
    .map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let policy = if cfg.traced {
        PublishPolicy::batched(usize::MAX)
    } else {
        PublishPolicy::every_arrival()
    };
    let server = TruthServer::new(durable).with_policy(policy);
    let t5 = Instant::now();
    Ok(Setup {
        server,
        storage,
        twin,
        arrivals,
        times: [t1 - t0, t2 - t1, t4 - t3, t5 - t4].map(|d| d.as_secs_f64()),
    })
}

/// Where every arrival is in the run, shared with the reader.
struct Shared {
    /// Set when the writer has finished; the reader stops.
    stop: AtomicBool,
    /// Arrivals durable and published so far (the reader's staleness
    /// reference).
    visible: AtomicUsize,
}

/// The writer's state and what it measured.
struct Writer {
    twin: Option<StreamingChecker>,
    arrivals: Arrivals,
    tr: Tracer,
    every: u64,
    full_every: u64,
    since_checkpoint: u64,
    increments_since_full: u64,
    open_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    capacity_per_s: f64,
    /// Arrivals made, and how many of them were the untimed warm-up.
    done: usize,
    warm: usize,
    online_tron: usize,
    retained: usize,
    retired: usize,
    slots_peak: usize,
    out: Outcome,
}

impl Writer {
    /// One arrival from its due time until durable and published; returns
    /// its latency in ms.
    fn arrival(&mut self, server: &mut TruthServer<DurableChecker>, k: u64, due: Instant) -> f64 {
        let started = Instant::now();
        self.lateness_ms.push(ms(stats::lateness(due, started)));
        let tr = &mut self.tr;
        let root = tr.begin_at("op.arrival", k, due);
        tr.record("stream.queue_wait", k, due, started);
        let delta = tr.span("client.build_delta", k, || {
            self.arrivals.next(server.backend().checker())
        });
        if let Some(twin) = &mut self.twin {
            let r = tr.span("trace.twin_arrive", k, || twin.arrive_new(delta.clone()));
            self.out.check(r.is_ok(), || {
                format!("arrival {k}: twin rejected the delta")
            });
        }
        self.out.attempted += 1;
        let stats = match tr.span("durability.ingest", k, || server.ingest(delta)) {
            Ok(s) => s,
            Err(e) => {
                self.out
                    .check(false, || format!("arrival {k}: ingest failed: {e}"));
                tr.end_at(root, Instant::now());
                // A failed arrival misses every latency limit.
                return f64::INFINITY;
            }
        };
        if self.twin.is_some() {
            // The checkpoint points of `DurabilityConfig` (on compaction;
            // every `every` arrivals, each `full_every`-th one full).
            self.since_checkpoint += 1;
            let full = stats.compacted
                || (self.since_checkpoint >= self.every
                    && self.increments_since_full + 1 >= self.full_every);
            let r = if full {
                self.increments_since_full = 0;
                self.since_checkpoint = 0;
                Some(tr.span("durability.checkpoint_full", k, || {
                    server.backend_mut().checkpoint()
                }))
            } else if self.since_checkpoint >= self.every {
                self.increments_since_full += 1;
                self.since_checkpoint = 0;
                Some(tr.span("durability.checkpoint_incr", k, || {
                    server.backend_mut().checkpoint_increment()
                }))
            } else {
                None
            };
            if let Some(Err(e)) = r {
                self.out
                    .check(false, || format!("arrival {k}: checkpoint failed: {e}"));
            }
            tr.span("serve.publish", k, || server.publish());
        }
        let lsn = server.backend().next_lsn() - 1;
        let acked = tr.span("durability.ack", k, || {
            server.backend_mut().wait_durable(lsn)
        });
        let visible = Instant::now();
        tr.end_at(root, visible);
        self.out.check(acked.is_ok(), || {
            format!("arrival {k}: ack failed: {acked:?}")
        });

        let checker = server.backend().checker();
        if let Some(twin) = &self.twin {
            let same = twin.arrivals() == checker.arrivals()
                && twin.model().revision() == checker.model().revision()
                && twin
                    .probs()
                    .iter()
                    .zip(checker.probs())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && twin.probs().len() == checker.probs().len();
            self.out.check(same, || {
                format!("arrival {k}: twin and durable checker differ")
            });
        }
        self.done += 1;
        self.online_tron += stats.tron_iterations;
        self.retained += stats.retained_instances;
        self.retired += stats.retired_claims;
        self.slots_peak = self.slots_peak.max(checker.model().n_claims());
        ms(visible - due)
    }

    /// Fill the retention window as fast as arrivals go, then forget what
    /// they measured: until the window is full nothing retires, and the
    /// timed arrivals should each retire one claim, as in steady state.
    fn warm_up(&mut self, server: &mut TruthServer<DurableChecker>, p: &Params) {
        for k in 0..p.window {
            self.arrival(server, k, Instant::now());
        }
        self.warm = self.done;
        self.tr.clear();
        self.lateness_ms.clear();
        (self.online_tron, self.retained, self.retired) = (0, 0, 0);
    }

    fn run(&mut self, server: &mut TruthServer<DurableChecker>, p: &Params, shared: &Shared) {
        let pacer = Pacer::new(Instant::now(), p.write_rate);
        for k in 0..p.open_arrivals {
            let due = pacer.wait(k);
            let latency = self.arrival(server, self.done as u64, due);
            shared.visible.store(self.done, Ordering::Release);
            self.open_ms.push(latency);
        }
        let t = Instant::now();
        for _ in 0..p.closed_arrivals {
            self.arrival(server, self.done as u64, Instant::now());
            shared.visible.store(self.done, Ordering::Release);
        }
        self.capacity_per_s = p.closed_arrivals as f64 / t.elapsed().as_secs_f64();
        shared.stop.store(true, Ordering::Release);
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The reader's state and what it measured.
struct Reader {
    handle: QueryHandle,
    rng: SmallRng,
    /// Base claims and cited sources: live for the whole run.
    claims: u32,
    sources: Vec<u32>,
    tr: Tracer,
    last: (u64, usize),
    open_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    staleness: usize,
    rounds: usize,
    out: Outcome,
}

impl Reader {
    /// One query round from its due time; returns its latency in ms.
    fn round(&mut self, k: u64, due: Instant, shared: &Shared) -> f64 {
        let ids: Vec<VarId> = (0..8)
            .map(|_| VarId(self.rng.gen_range(0..self.claims)))
            .collect();
        let source = self.sources[self.rng.gen_range(0..self.sources.len())];
        let visible = shared.visible.load(Ordering::Acquire);
        let started = Instant::now();
        self.lateness_ms.push(ms(stats::lateness(due, started)));
        let h = &self.handle;
        let tr = &mut self.tr;
        let root = tr.begin_at("op.query", k, due);
        tr.record("serve.query_wait", k, due, started);
        let truth = tr.span("serve.truth_batch", k, || h.truth_batch(&ids));
        let top = tr.span("serve.top_k", k, || h.top_k_uncertain(10));
        let trust = tr.span("serve.source_trust", k, || h.source_trust(source));
        let end = Instant::now();
        tr.end_at(root, end);

        self.out.attempted += 1;
        self.rounds += 1;
        let mut monotone = true;
        for at in [truth.at, top.at, trust.at] {
            let tag = (at.revision.0, at.arrivals);
            monotone &= tag.0 >= self.last.0 && tag.1 >= self.last.1;
            self.last = tag;
        }
        let answers_ok =
            truth.value.len() == ids.len()
                && truth.value.iter().zip(&ids).all(|(a, &id)| {
                    a.claim == id && a.live && (0.0..=1.0).contains(&a.probability)
                })
                && !top.value.is_empty()
                && top.value.len() <= 10
                && top.value.iter().all(|&(_, h)| (0.0..=1.0).contains(&h))
                && top
                    .value
                    .windows(2)
                    .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 .0 < w[1].0 .0))
                && trust.value.is_some_and(|t| (0.0..=1.0).contains(&t));
        self.out.check(monotone && answers_ok, || {
            format!("query round {k}: monotone {monotone}, answers valid {answers_ok}")
        });
        self.staleness += visible.saturating_sub(truth.at.arrivals);
        ms(end - due)
    }

    fn run(&mut self, p: &Params, shared: &Shared) {
        let pacer = Pacer::new(Instant::now(), p.read_rate);
        let mut k = 0;
        while !shared.stop.load(Ordering::Acquire) {
            let due = pacer.wait(k);
            let latency = self.round(k as u64, due, shared);
            self.open_ms.push(latency);
            k += 1;
        }
    }
}

/// Run the `stream-serve` workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let p = Params::new(cfg);
    let name = "stream-serve";
    let dir = PathBuf::from(format!("target/e2e/store-{name}-{}", cfg.seed));
    let mut out = Outcome::default();

    // ---- Set up several times; the median is the set-up cost.
    let mut split: [Vec<f64>; 5] = Default::default();
    let mut last = None;
    for _ in 0..p.setups {
        drop(last.take());
        match setup(&p, cfg, &dir) {
            Ok(s) => {
                for (i, t) in s.times.iter().enumerate() {
                    split[i].push(*t);
                }
                split[4].push(s.times.iter().sum());
                last = Some(s);
            }
            Err(e) => {
                out.attempted += 1;
                out.check(false, || format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    let Setup {
        mut server,
        storage,
        twin,
        arrivals,
        ..
    } = last.expect("at least one set-up");
    out.set("factdb.generate_s", stats::median(&split[0]));
    out.set("factdb.to_model_s", stats::median(&split[1]));
    out.set("durability.create_s", stats::median(&split[2]));
    out.set("serve.server_new_s", stats::median(&split[3]));
    out.set("setup_s", stats::median(&split[4]));

    let base = server.backend().checker().model().clone();
    let base_claims = base.n_claims();
    out.note(format!(
        "setup: {} claims, {} cliques, {} sources; setup_s median of {}: {:.3}",
        base.n_claims(),
        base.cliques().len(),
        base.n_sources(),
        p.setups,
        stats::median(&split[4])
    ));
    let epoch = Instant::now();
    let tracer = || {
        if cfg.traced {
            Tracer::new(epoch)
        } else {
            Tracer::disabled()
        }
    };
    let mut writer = Writer {
        twin,
        arrivals,
        tr: tracer(),
        every: p.checkpoint_every,
        full_every: p.full_every,
        since_checkpoint: 0,
        increments_since_full: 0,
        open_ms: Vec::new(),
        lateness_ms: Vec::new(),
        capacity_per_s: 0.0,
        done: 0,
        warm: 0,
        online_tron: 0,
        retained: 0,
        retired: 0,
        slots_peak: base.n_claims(),
        out: Outcome::default(),
    };
    writer.warm_up(&mut server, &p);
    storage.reset();
    let mut reader = Reader {
        handle: server.reader(),
        rng: SmallRng::seed_from_u64(cfg.seed ^ 0x9e3d_0a11),
        claims: base.n_claims() as u32,
        sources: writer.arrivals.cited.clone(),
        tr: tracer(),
        last: (0, 0),
        open_ms: Vec::new(),
        lateness_ms: Vec::new(),
        staleness: 0,
        rounds: 0,
        out: Outcome::default(),
    };
    drop(base);
    let shared = Shared {
        stop: AtomicBool::new(false),
        visible: AtomicUsize::new(0),
    };
    std::thread::scope(|s| {
        let r = s.spawn(|| reader.run(&p, &shared));
        writer.run(&mut server, &p, &shared);
        r.join().expect("reader thread panicked");
    });

    // ---- Crash and recover: the recovered checker must be the live one.
    let checker = server.backend().checker();
    let live = (
        bits(checker.probs()),
        checker.arrivals(),
        checker.model().revision(),
        checker.model().model_id(),
    );
    let compactions = checker.model().compactions();
    // What the arrivals wrote; recovery writes a checkpoint of its own.
    let full = storage.full.lock().expect("counter lock").clone();
    let incr = storage.incr.lock().expect("counter lock").clone();
    let wal_bytes = storage.wal_bytes.load(Ordering::Relaxed);
    out.digest = Some(crate::report::digest(live.0.iter().copied().chain([
        live.1 as u64,
        live.2 .0,
        compactions,
        full.len() as u64,
        incr.len() as u64,
    ])));
    let storage_dyn: Arc<dyn Storage> = storage.clone();
    drop(server);
    let replay = streamcheck::verify_store(&storage_dyn).map_or(0, |r| r.log_records);
    let t = Instant::now();
    let recovered = DurableChecker::recover(
        storage_dyn,
        OnlineEmConfig::default(),
        p.durability(cfg.traced),
    );
    let recover_s = t.elapsed().as_secs_f64();
    out.set("durability.recover_s", recover_s);
    out.attempted += 1;
    match &recovered {
        Ok(rec) => {
            let c = rec.checker();
            let got = (
                bits(c.probs()),
                c.arrivals(),
                c.model().revision(),
                c.model().model_id(),
            );
            out.check(got == live, || {
                "recovered state differs from the live state".into()
            });
        }
        Err(e) => out.check(false, || format!("recovery failed: {e}")),
    }
    drop(recovered);
    if p.disk {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let due = compactions_due(base_claims, p.window, p.compact_threshold, writer.done);
    let want = due.min(Params::MIN_COMPACTIONS);
    out.check(compactions >= want, || {
        format!(
            "{compactions} compactions after {} arrivals, expected at least {want}",
            writer.done
        )
    });

    // ---- Fold in both sides' counts and failures.
    for side in [&mut writer.out, &mut reader.out] {
        out.attempted += side.attempted;
        out.failed += side.failed;
        out.failures.append(&mut side.failures);
    }
    out.failures.truncate(8);

    // ---- End-to-end metrics: arrivals, and the query rounds beside them.
    if !writer.open_ms.is_empty() {
        out.set_latency(&writer.open_ms);
        out.set("throughput_per_s", writer.capacity_per_s);
        out.note(format!(
            "arrival-to-visible (seed {}): {}; closed-loop capacity {:.1}/s",
            cfg.seed,
            stats::describe(&writer.open_ms),
            writer.capacity_per_s
        ));
    }
    if !reader.open_ms.is_empty() {
        let q = stats::sorted(&reader.open_ms);
        out.set("serve.query_p50_us", 1e3 * stats::percentile(&q, 50.0));
        out.set("serve.query_p99_us", 1e3 * stats::percentile(&q, 99.0));
        out.note(format!("query round: {}", stats::describe(&q)));
    }
    let mean = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        }
    };
    // Per timed arrival: the warm-up's counts and bytes were forgotten.
    let done = (writer.done - writer.warm).max(1) as f64;
    out.note(format!(
        "writer: {} + {} warm-up arrivals, {} compactions, {} full + {} incremental checkpoints \
         ({:.0} / {:.0} bytes), {:.0} WAL bytes/arrival, lateness p50 {:.3} ms; \
         reader: {} rounds, lateness p50 {:.3} ms; recover {recover_s:.3} s replaying {replay} records",
        writer.done - writer.warm,
        writer.warm,
        compactions,
        full.len(),
        incr.len(),
        mean(&full),
        mean(&incr),
        wal_bytes as f64 / done,
        median_or_zero(&writer.lateness_ms),
        reader.rounds,
        median_or_zero(&reader.lateness_ms),
    ));

    if cfg.traced {
        // ---- Per-layer metrics from the spans.
        let w = trace::breakdown(writer.tr.spans(), "op.arrival");
        let self_s = |name: &str| w.self_time.get(name).map_or(0.0, |d| d.as_secs_f64());
        let twin_s = self_s("trace.twin_arrive");
        // The arrival path as the untraced run walks it: the twin's time is
        // tracing overhead, not part of the path.
        let path_s = (w.total.as_secs_f64() - twin_s).max(1e-12);
        let per_arrival_ms = |s: f64| 1e3 * s / w.ops.max(1) as f64;
        out.set("stream.queue_wait_ms", w.per_op_ms("stream.queue_wait"));
        out.set("stream.arrive_ms", per_arrival_ms(twin_s));
        out.set(
            "durability.log_ms",
            per_arrival_ms(self_s("durability.ingest") - twin_s),
        );
        out.set("durability.ack_ms", w.per_op_ms("durability.ack"));
        out.set("serve.publish_ms", w.per_op_ms("serve.publish"));
        let spans = writer.tr.spans();
        out.set(
            "durability.checkpoint_full_ms",
            stats::mean(&trace::durations_ms(spans, "durability.checkpoint_full")),
        );
        out.set(
            "durability.checkpoint_incr_ms",
            stats::mean(&trace::durations_ms(spans, "durability.checkpoint_incr")),
        );
        out.set("trace.overhead_share", twin_s / path_s);

        let r = trace::breakdown(reader.tr.spans(), "op.query");
        out.set("serve.query_wait_us", 1e3 * r.per_op_ms("serve.query_wait"));
        for (call, p50, p99) in [
            (
                "serve.truth_batch",
                "serve.truth_batch_p50_us",
                "serve.truth_batch_p99_us",
            ),
            ("serve.top_k", "serve.top_k_p50_us", "serve.top_k_p99_us"),
            (
                "serve.source_trust",
                "serve.source_trust_p50_us",
                "serve.source_trust_p99_us",
            ),
        ] {
            let d = stats::sorted(&trace::durations_ms(reader.tr.spans(), call));
            if !d.is_empty() {
                out.set(p50, 1e3 * stats::percentile(&d, 50.0));
                out.set(p99, 1e3 * stats::percentile(&d, 99.0));
            }
        }
        out.set("unattributed_share", self_s("op.arrival") / path_s);

        out.set(
            "stream.online_tron_iterations",
            writer.online_tron as f64 / done,
        );
        out.set("stream.retained_instances", writer.retained as f64 / done);
        out.set("stream.retired_claims", writer.retired as f64);
        out.set("stream.compactions", compactions as f64);
        out.set("crf.claim_slots_peak", writer.slots_peak as f64);
        out.set("durability.wal_bytes_per_arrival", wal_bytes as f64 / done);
        out.set("durability.checkpoint_full_bytes", mean(&full));
        out.set("durability.checkpoint_incr_bytes", mean(&incr));
        out.set("durability.checkpoints", (full.len() + incr.len()) as f64);
        out.set("durability.recover_replay_records", replay as f64);
        out.set(
            "serve.staleness_arrivals",
            reader.staleness as f64 / reader.rounds.max(1) as f64,
        );

        for (tracer, names) in [
            (
                &writer.tr,
                &[
                    "stream.queue_wait",
                    "client.build_delta",
                    "trace.twin_arrive",
                    "durability.ingest",
                    "durability.checkpoint_full",
                    "durability.checkpoint_incr",
                    "serve.publish",
                    "durability.ack",
                    "op.arrival",
                ][..],
            ),
            (
                &reader.tr,
                &[
                    "serve.query_wait",
                    "serve.truth_batch",
                    "serve.top_k",
                    "serve.source_trust",
                    "op.query",
                ][..],
            ),
        ] {
            for &name in names {
                let d = stats::sorted(&trace::durations_ms(tracer.spans(), name));
                if d.is_empty() {
                    continue;
                }
                out.note(format!(
                    "span {name:<26} n {:>6}  p50 {:>9.4} ms  p99 {:>9.4} ms  max {:>9.4} ms",
                    d.len(),
                    stats::percentile(&d, 50.0),
                    stats::percentile(&d, 99.0),
                    d[d.len() - 1]
                ));
            }
        }
        trace::write_run(
            cfg,
            name,
            &[("writer", &writer.tr), ("reader", &reader.tr)],
            &mut out,
        );
    }
    if let Some(mb) = stats::peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    out
}

/// How many compactions the sliding window must have triggered after
/// `arrivals` arrivals on top of `base` never-retiring claims: a lower
/// bound, since it counts only the dead-claim fraction (dead cliques can
/// trigger a compaction earlier).
fn compactions_due(base: usize, window: u64, threshold: f64, arrivals: usize) -> u64 {
    let (mut claims, mut dead, mut count) = (base, 0usize, 0);
    for a in 1..=arrivals {
        claims += 1;
        if a as u64 > window {
            dead += 1;
        }
        if dead as f64 / claims as f64 >= threshold {
            claims -= dead;
            dead = 0;
            count += 1;
        }
    }
    count
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::median(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_arithmetic_predicts_compactions() {
        // Base claims never retire; each arrival past the window retires
        // one, and a compaction drops the dead.
        // 12 dead of 122 claims is under 10%; 13 of 123 is over.
        assert_eq!(compactions_due(100, 10, 0.1, 22), 0);
        assert_eq!(compactions_due(100, 10, 0.1, 23), 1);
        // Then 110 claims are left and need 13 more dead.
        assert_eq!(compactions_due(100, 10, 0.1, 35), 1);
        assert_eq!(compactions_due(100, 10, 0.1, 36), 2);
    }
}
