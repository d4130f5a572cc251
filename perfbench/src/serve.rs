//! `serve`: online labeling of a frozen TB-Xray labeler over loopback
//! TCP — `RemoteLabeler::submit` → `WireServer` → `LabelService` with one
//! worker per core — under open-loop Poisson load at 40 img/s on one
//! connection. Also holds the open-loop driver and the answer checker the
//! `serve-refit` workload shares.

use crate::check::Checker;
use crate::json::Json;
use crate::schedule::{arrivals, Arrival};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{goggles_config, heap, metric, sys, Args, Outcome, CORPUS_SEED, SETUP_REPEATS};
use goggles_core::prototypes::embed_images;
use goggles_core::{apply_mapping, fold_in_rows, Goggles, ProbabilisticLabels};
use goggles_datasets::{generate, Dataset, DevSet, TaskConfig, TaskKind};
use goggles_serve::{
    FittedLabeler, LabelResponse, LabelService, Labeler, RemoteLabeler, RetryPolicy, ServeConfig,
    SnapshotRegistry, Ticket, WireServer,
};
use goggles_vision::Image;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered read rate of the `serve` workload, requests per second. At
/// 80 img/s on a 2-core host the CPU cost per image spread 7–9% between
/// runs, at 40 img/s 3–8%; and at the read rate of `serve-refit` the two
/// workloads differ only by the trainer.
const RATE: f64 = 40.0;
/// Training images per class of the served corpus (N = 100).
pub(crate) const TRAIN_PER_CLASS: usize = 50;
/// Held-out images per class: the request pool (400 distinct images).
pub(crate) const POOL_PER_CLASS: usize = 200;
/// Dev-set labels per class.
const DEV_PER_CLASS: usize = 5;
/// Requests sent through the whole stack before timing starts.
pub(crate) const WARM_UP: usize = 16;
/// A request unanswered this long after it was due counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Connection threads of the wire server (one per client connection).
pub(crate) const CONN_THREADS: usize = 2;
/// Batches of eight timed for `snapshot.batch8_ms_per_image`.
const BATCH8_ROUNDS: usize = 25;

/// The served corpus: a TB-Xray task whose held-out block is the pool the
/// requests draw from.
pub(crate) struct Corpus {
    pub(crate) ds: Dataset,
    pub(crate) dev: DevSet,
    pub(crate) pool: Vec<Arc<Image>>,
    pub(crate) truth: Vec<usize>,
}

pub(crate) fn corpus() -> Corpus {
    let ds =
        generate(&TaskConfig::new(TaskKind::TbXray, TRAIN_PER_CLASS, POOL_PER_CLASS, CORPUS_SEED));
    let dev = ds.sample_dev_set(DEV_PER_CLASS, CORPUS_SEED);
    let pool = ds.test_images().into_iter().map(|img| Arc::new(img.clone())).collect();
    let truth = ds.test_labels();
    Corpus { ds, dev, pool, truth }
}

/// One request of an open-loop replay and how it ended.
pub(crate) struct Reply {
    pub(crate) id: usize,
    pub(crate) image: usize,
    pub(crate) due: Instant,
    pub(crate) sent: Instant,
    pub(crate) done: Instant,
    pub(crate) result: Result<LabelResponse, String>,
}

impl Reply {
    pub(crate) fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// A submitted request on its way from the generator to the collector.
struct InFlight {
    id: usize,
    image: usize,
    due: Instant,
    sent: Instant,
    ticket: Result<Ticket, String>,
}

/// The outcome of an open-loop replay: every request, plus the labeler of
/// every snapshot version that answered, captured when its first answer
/// arrived so the checker can recompute answers on exactly that version.
pub(crate) struct Replay {
    pub(crate) replies: Vec<Reply>,
    pub(crate) versions: HashMap<u64, Arc<FittedLabeler>>,
    pub(crate) start: Instant,
    /// Process CPU seconds spent from the start of the schedule until the
    /// last answer.
    pub(crate) cpu_s: f64,
}

/// Replay `schedule` open-loop against `labeler`: a generator thread
/// submits each request at its due time, whether or not earlier ones were
/// answered, and the calling thread collects the answers.
pub(crate) fn open_loop<L: Labeler + Sync>(
    labeler: &L,
    registry: &SnapshotRegistry,
    pool: &[Arc<Image>],
    schedule: &[Arrival],
) -> Replay {
    let start = Instant::now() + Duration::from_millis(50);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut replies = Vec::with_capacity(schedule.len());
    let mut versions = HashMap::new();
    let cpu0 = sys::cpu_seconds();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (id, a) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(a.due_s);
                sleep_until(due);
                let sent = Instant::now();
                let ticket =
                    labeler.submit(Arc::clone(&pool[a.image])).map_err(|e| format!("submit: {e}"));
                if tx.send(InFlight { id, image: a.image, due, sent, ticket }).is_err() {
                    return;
                }
            }
        });
        collect(&rx, registry, &mut replies, &mut versions);
    });
    let cpu_s = sys::cpu_seconds() - cpu0;
    replies.sort_by_key(|r| r.id);
    Replay { replies, versions, start, cpu_s }
}

/// The collector: waits for the answers in submission order, each for
/// at most [`REQUEST_TIMEOUT`] past its due time. The micro-batcher serves
/// its queue in order, so an answer that overtakes an older one is rare;
/// when it happens it is timestamped when the older one arrives.
fn collect(
    rx: &mpsc::Receiver<InFlight>,
    registry: &SnapshotRegistry,
    replies: &mut Vec<Reply>,
    versions: &mut HashMap<u64, Arc<FittedLabeler>>,
) {
    for f in rx {
        let result = match f.ticket {
            Err(e) => Err(e),
            Ok(mut ticket) => {
                let left = REQUEST_TIMEOUT.saturating_sub(f.due.elapsed());
                match ticket.wait_timeout(left) {
                    Some(answer) => answer.map_err(|e| e.to_string()),
                    None => Err(format!("no answer within {REQUEST_TIMEOUT:?}")),
                }
            }
        };
        let done = Instant::now();
        let result = result.and_then(|r| {
            if let std::collections::hash_map::Entry::Vacant(slot) = versions.entry(r.version) {
                let snapshot = registry
                    .get_version(r.version)
                    .map_err(|e| format!("version {} not in the registry: {e}", r.version))?;
                slot.insert(Arc::clone(snapshot.labeler()));
            }
            Ok(r)
        });
        replies.push(Reply { id: f.id, image: f.image, due: f.due, sent: f.sent, done, result });
    }
}

/// Check every answer bit for bit against `FittedLabeler::label_one` on
/// the snapshot version the answer names. References are computed once per
/// (image, version), spread over `threads` threads.
pub(crate) fn check_answers(
    replay: &Replay,
    pool: &[Arc<Image>],
    threads: usize,
    check: &mut Checker,
) {
    let mut keys: Vec<(usize, u64)> = replay
        .replies
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|a| (r.image, a.version)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    let reference: HashMap<(usize, u64), (usize, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter_map(|&(image, version)| {
                            let labeler = replay.versions.get(&version)?;
                            Some(((image, version), labeler.label_one(&pool[image])))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap_or_default()).collect()
    });
    for r in &replay.replies {
        match &r.result {
            Err(e) => check.record(Err(format!("request {}: {e}", r.id))),
            Ok(a) => match reference.get(&(r.image, a.version)) {
                Some((label, probs)) => {
                    check.answer(r.id as u64, (a.label, &a.probs), (*label, probs));
                }
                None => check.record(Err(format!("request {}: no reference", r.id))),
            },
        }
    }
}

/// Latency digest of one replay.
pub(crate) struct LoadStats {
    pub(crate) latency_ms: Vec<f64>,
    pub(crate) client_ms: Vec<f64>,
    pub(crate) late_ms: Vec<f64>,
    pub(crate) answered: usize,
    pub(crate) achieved_rate: f64,
    /// From the start of the schedule to the last answer, seconds.
    pub(crate) elapsed_s: f64,
}

pub(crate) fn load_stats(replay: &Replay) -> LoadStats {
    let ok: Vec<&Reply> = replay.replies.iter().filter(|r| r.result.is_ok()).collect();
    let last_sent = replay.replies.iter().map(|r| r.sent).max().unwrap_or(replay.start);
    let last_done = ok.iter().map(|r| r.done).max().unwrap_or(replay.start);
    LoadStats {
        latency_ms: ok.iter().map(|r| r.latency_ms()).collect(),
        client_ms: ok.iter().map(|r| ms(r.done - r.sent)).collect(),
        late_ms: replay
            .replies
            .iter()
            .map(|r| ms(r.sent.saturating_duration_since(r.due)))
            .collect(),
        answered: ok.len(),
        achieved_rate: replay.replies.len() as f64
            / last_sent.duration_since(replay.start).as_secs_f64().max(1e-9),
        elapsed_s: last_done.duration_since(replay.start).as_secs_f64().max(1e-9),
    }
}

/// Every request of a replay, column by column, for the output file.
pub(crate) fn replay_json(replay: &Replay) -> Json {
    let col = |f: &dyn Fn(&Reply) -> Json| Json::Arr(replay.replies.iter().map(f).collect());
    let since = |t: Instant| t.saturating_duration_since(replay.start).as_secs_f64();
    Json::obj(vec![
        ("due_s", col(&|r| Json::from(since(r.due)))),
        ("sent_s", col(&|r| Json::from(since(r.sent)))),
        ("done_s", col(&|r| Json::from(since(r.done)))),
        ("ok", col(&|r| Json::from(r.result.is_ok()))),
        (
            "batch_size",
            col(&|r| r.result.as_ref().map_or(Json::Null, |a| Json::from(a.batch_size as f64))),
        ),
        (
            "version",
            col(&|r| r.result.as_ref().map_or(Json::Null, |a| Json::from(a.version as f64))),
        ),
    ])
}

/// Held-out accuracy of the answers: the share of distinct pool images
/// whose answer is their true class. (Answers are bit-identical across
/// repeats of an image on one version; counting each image once keeps the
/// figure independent of which images the seeded order repeats.)
pub(crate) fn answer_accuracy(replay: &Replay, truth: &[usize]) -> f64 {
    let answers: HashMap<usize, usize> = replay
        .replies
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|a| (r.image, a.label)))
        .collect();
    let hits = answers.iter().filter(|(&image, &label)| truth[image] == label).count();
    hits as f64 / answers.len().max(1) as f64
}

/// The running serving stack of the `serve` workload. Dropping it tears
/// it down in field order: client, server, service.
struct Stack {
    corpus: Corpus,
    client: RemoteLabeler,
    _server: WireServer,
    service: Arc<LabelService>,
    fit_ms: f64,
    save_ms: f64,
    load_ms: f64,
}

/// Generate the corpus, fit and snapshot the labeler, load it back (as a
/// server would), spawn the service and wire front, connect, warm up.
fn set_up(threads: usize, check: &mut Checker) -> Result<Stack, String> {
    let corpus = corpus();
    let config = goggles_config(threads);
    let t = Instant::now();
    let (labeler, _) =
        FittedLabeler::fit(&config, &corpus.ds, &corpus.dev).map_err(|e| format!("fit: {e}"))?;
    let fit_ms = ms(t.elapsed());
    let t = Instant::now();
    let bytes = labeler.save();
    let save_ms = ms(t.elapsed());
    let t = Instant::now();
    let loaded = FittedLabeler::load(&bytes).map_err(|e| format!("load: {e}"))?;
    let load_ms = ms(t.elapsed());
    check.record(if loaded == labeler {
        Ok(())
    } else {
        Err("snapshot round trip changed the labeler".into())
    });
    let service = Arc::new(LabelService::spawn(loaded, ServeConfig::with_workers(threads)));
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service), CONN_THREADS)
        .map_err(|e| format!("bind: {e}"))?;
    let client = RemoteLabeler::connect_with(server.local_addr(), RetryPolicy::none())
        .map_err(|e| format!("connect: {e}"))?;
    let warm: Vec<&Image> = corpus.pool.iter().take(WARM_UP).map(|i| &**i).collect();
    client.label_all(&warm).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Stack { corpus, client, _server: server, service, fit_ms, save_ms, load_ms })
}

/// The direct replay of the traced run: each request labeled in-process
/// at its due time, alternately through `label_batch` and through the
/// same three layers called one by one (embed, affinity row, end model),
/// each inside a span.
fn direct_replay(
    goggles: &Goggles,
    labeler: &FittedLabeler,
    version: u64,
    pool: &[Arc<Image>],
    schedule: &[Arrival],
    tr: &mut Tracer,
) -> Replay {
    let c = goggles.config();
    let model = labeler.frozen_model();
    let mut replies = Vec::with_capacity(schedule.len());
    let start = Instant::now() + Duration::from_millis(50);
    for (id, a) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due_s);
        sleep_until(due);
        let sent = Instant::now();
        let image: &Image = &pool[a.image];
        let trace = id as u64;
        let root = tr.begin("request.compute", trace, None);
        let labels = if id % 2 == 0 {
            tr.span("snapshot.label_batch", trace, Some(root), || labeler.label_batch(&[image], 1))
        } else {
            let emb = tr.span("cnn.embed", trace, Some(root), || {
                embed_images(goggles.backbone(), &[image], c.top_z, 1, c.center_patches)
            });
            let rows = tr
                .span("affinity.row", trace, Some(root), || labeler.bank().affinity_rows(&emb, 1));
            tr.span("endmodel", trace, Some(root), || {
                let clusters =
                    fold_in_rows(&model.base_models, &model.ensemble, model.one_hot, &rows);
                ProbabilisticLabels { probs: apply_mapping(&clusters, labeler.mapping()) }
            })
        };
        tr.end(root);
        let answer = LabelResponse {
            label: labels.hard_labels()[0],
            probs: labels.probs.row(0).to_vec(),
            batch_size: 1,
            version,
        };
        replies.push(Reply {
            id,
            image: a.image,
            due,
            sent,
            done: Instant::now(),
            result: Ok(answer),
        });
    }
    let versions = HashMap::from([(version, Arc::new(labeler.clone()))]);
    Replay { replies, versions, start, cpu_s: 0.0 }
}

pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let threads = sys::nproc();
    let mut check = Checker::default();
    let mut setup_s = Vec::new();
    let mut stack: Option<Stack> = None;
    let (mut fit_ms, mut save_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPEATS {
        drop(stack.take());
        let t = Instant::now();
        let s = set_up(threads, &mut check)?;
        setup_s.push(t.elapsed().as_secs_f64());
        fit_ms.push(s.fit_ms);
        save_ms.push(s.save_ms);
        load_ms.push(s.load_ms);
        stack = Some(s);
    }
    let stack = stack.ok_or("no set-up")?;
    let pool = &stack.corpus.pool;
    let registry = stack.service.registry();
    let schedule = arrivals(args.seed, RATE, args.seconds as f64, pool.len());
    let mut detail = vec![
        ("rate", Json::from(RATE)),
        ("requests", Json::from(schedule.len() as f64)),
        ("setup_s", Json::Arr(setup_s.iter().map(|&x| Json::from(x)).collect())),
    ];

    // A traced run first replays the schedule directly and in-process;
    // every run then replays it over the wire, untraced.
    let mut tr = Tracer::new();
    let current = registry.get();
    let mut traced = None;
    if args.trace {
        let goggles = Goggles::new(goggles_config(1));
        let flops = goggles.backbone().forward_flops_per_image() as f64;
        let direct =
            direct_replay(&goggles, current.labeler(), current.version(), pool, &schedule, &mut tr);
        check_answers(&direct, pool, threads, &mut check);
        let mut batch8 = Vec::with_capacity(BATCH8_ROUNDS);
        for round in 0..BATCH8_ROUNDS {
            let images: Vec<&Image> =
                (0..8).map(|k| &*pool[(round * 8 + k) % pool.len()]).collect();
            let id = tr.begin("snapshot.label_batch8", round as u64, None);
            current.labeler().label_batch(&images, 1);
            tr.end(id);
            batch8.push(tr.duration_ms(id) / 8.0);
        }
        let before = stack.service.stats();
        let in_process = open_loop(&*stack.service, registry, pool, &schedule);
        let after = stack.service.stats();
        check_answers(&in_process, pool, threads, &mut check);
        let mean_batch =
            (after.images - before.images) as f64 / (after.batches - before.batches).max(1) as f64;
        traced = Some((direct, batch8, in_process, mean_batch, flops));
    }
    heap::reset_peak();
    let wire = open_loop(&stack.client, registry, pool, &schedule);
    let peak_heap_mb = heap::peak_mb();
    check_answers(&wire, pool, threads, &mut check);
    let load = load_stats(&wire);
    let p50 = percentile(&load.latency_ms, 0.50)?;
    detail.push(("requests_detail", replay_json(&wire)));
    let mut metrics = vec![
        metric("setup_s", median(&setup_s)),
        metric("peak_heap_mb", peak_heap_mb),
        metric("cpu_ms_per_image", wire.cpu_s * 1e3 / load.answered.max(1) as f64),
        metric("accuracy", answer_accuracy(&wire, &stack.corpus.truth)),
        metric("images_per_s", load.answered as f64 / load.elapsed_s),
        metric("e2e.p50_ms", p50),
        metric("e2e.p90_ms", percentile(&load.latency_ms, 0.90)?),
        metric("e2e.refit_cycle_ms", median(&fit_ms)),
        metric("loadgen.late_p99_ms", percentile(&load.late_ms, 0.99)?),
        metric("loadgen.achieved_rate", load.achieved_rate),
        metric("client.p99_ms", percentile(&load.client_ms, 0.99)?),
        metric("snapshot.load_ms", median(&load_ms)),
        metric("snapshot.save_ms", median(&save_ms)),
    ];
    if let Some((direct, batch8, in_process, mean_batch, flops)) = traced {
        // Pair the three replays request by request: compute, then the
        // service on top of it, then the wire on top of that.
        let compute: Vec<f64> = direct.replies.iter().map(|r| ms(r.done - r.sent)).collect();
        let mut queue = Vec::new();
        let mut wire_over = Vec::new();
        for ((d, s), w) in compute.iter().zip(&in_process.replies).zip(&wire.replies) {
            tr.record("request.service", s.id as u64, None, s.due, s.done);
            tr.record("request.wire", w.id as u64, None, w.due, w.done);
            if s.result.is_ok() && w.result.is_ok() {
                queue.push(s.latency_ms() - d);
                wire_over.push(w.latency_ms() - s.latency_ms());
            }
        }
        let spans = tr.spans();
        let self_ns = trace::self_times_ns(spans);
        let embed = trace::median_ms(spans, "cnn.embed");
        let row = trace::median_ms(spans, "affinity.row");
        let endmodel = trace::median_self_ms(spans, &self_ns, "endmodel");
        let batch1 = trace::median_ms(spans, "snapshot.label_batch");
        let decomposed: Vec<f64> =
            compute.iter().enumerate().filter(|(i, _)| i % 2 == 1).map(|(_, &x)| x).collect();
        let (queue_ms, wire_ms) = (median(&queue), median(&wire_over));
        detail.push(("spans", trace::to_json(spans)));
        metrics.extend([
            metric("cnn.embed_ms_per_image", embed),
            metric("cnn.gflops", flops / (embed * 1e-3) / 1e9),
            metric("affinity.row_ms", row),
            metric("endmodel.ms", endmodel),
            metric("snapshot.batch1_ms", batch1),
            metric("snapshot.batch8_ms_per_image", median(&batch8)),
            metric("service.queue_ms", queue_ms),
            metric("service.mean_batch", mean_batch),
            metric("wire.overhead_ms", wire_ms),
            metric("trace.remainder_ms", p50 - (embed + row + endmodel + queue_ms + wire_ms)),
            metric("trace.overhead_ms", median(&decomposed) - batch1),
        ]);
    }
    drop(stack);
    Ok(Outcome { metrics, check, detail })
}
