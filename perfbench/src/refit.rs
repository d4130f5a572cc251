//! `serve-refit`: reads beside writes. Reads arrive open-loop at 40 img/s
//! on one connection while a second connection sends a burst of eight
//! `ingest`s once per second to a `Trainer` bound through
//! `bind_with_ingest` (`min_batch` = 8, so each burst trains alone). The
//! refit loop — incremental append, warm and cold EM, gate, publish —
//! competes with the reads for the same cores.

use crate::check::Checker;
use crate::json::Json;
use crate::schedule::{arrivals, bursts};
use crate::serve::{
    answer_accuracy, check_answers, corpus, load_stats, ms, open_loop, replay_json, Corpus,
    CONN_THREADS, WARM_UP,
};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{goggles_config, heap, metric, sys, Args, Outcome, CORPUS_SEED, SETUP_REPEATS};
use goggles_core::{AffinityMatrix, Goggles, GogglesConfig};
use goggles_datasets::{generate, DevSet, TaskConfig, TaskKind};
use goggles_serve::{
    FittedLabeler, LabelService, Labeler, RemoteLabeler, RetryPolicy, ServeConfig, ServerOptions,
    SnapshotRegistry, TrainingBootstrap, WireServer,
};
use goggles_tensor::Matrix;
use goggles_trainer::{RefitOutcome, Trainer, TrainerConfig};
use goggles_vision::Image;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered read rate, requests per second.
const READ_RATE: f64 = 40.0;
/// Images per ingest burst; also the trainer's `min_batch`.
const BURST: usize = 8;
/// How long a burst may wait for its refit cycle before it counts as failed.
const CYCLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The running stack of the `serve-refit` workload. Dropping it tears it
/// down in field order: clients, server, trainer, service.
struct Stack {
    corpus: Corpus,
    ingest_pool: Vec<Image>,
    bootstrap: TrainingBootstrap,
    registry: Arc<SnapshotRegistry>,
    reader: RemoteLabeler,
    ingester: RemoteLabeler,
    _server: WireServer,
    trainer: Trainer,
    service: Arc<LabelService>,
}

/// Build the serving stack over the fixed corpus, with a pool of fresh
/// TB-Xray images (the next trial's corpus) for the ingest bursts.
fn set_up(seconds: usize, config: &GogglesConfig) -> Result<Stack, String> {
    let corpus = corpus();
    let fresh = generate(&TaskConfig::new(
        TaskKind::TbXray,
        (seconds * BURST).div_ceil(2),
        0,
        CORPUS_SEED + 1,
    ));
    let ingest_pool = fresh.images;
    let bootstrap = FittedLabeler::fit_for_training(config, &corpus.ds, &corpus.dev)
        .map_err(|e| format!("fit: {e}"))?;
    let registry = Arc::new(
        SnapshotRegistry::new(bootstrap.labeler.clone()).map_err(|e| format!("registry: {e}"))?,
    );
    let service = Arc::new(LabelService::spawn_with_registry(
        Arc::clone(&registry),
        ServeConfig::with_workers(config.threads),
    ));
    let trainer = Trainer::spawn(
        bootstrap.clone(),
        config,
        Arc::clone(&registry),
        TrainerConfig {
            min_batch: BURST,
            canary_served: 0,
            embed_threads: 1,
            ..Default::default()
        },
    );
    let server = WireServer::bind_with_ingest(
        "127.0.0.1:0",
        Arc::clone(&service),
        CONN_THREADS,
        ServerOptions::default(),
        trainer.sink(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let connect = || {
        RemoteLabeler::connect_with(server.local_addr(), RetryPolicy::none())
            .map_err(|e| format!("connect: {e}"))
    };
    let (reader, ingester) = (connect()?, connect()?);
    let warm: Vec<&Image> = corpus.pool.iter().take(WARM_UP).map(|i| &**i).collect();
    reader.label_all(&warm).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Stack {
        corpus,
        ingest_pool,
        bootstrap,
        registry,
        reader,
        ingester,
        _server: server,
        trainer,
        service,
    })
}

/// Send one burst, then wait for the trainer to finish the cycle it
/// starts. Returns the time from the last ingest ack to the cycle's end.
fn send_burst(stack: &Stack, k: usize, images: &[usize], rows0: usize) -> Result<f64, String> {
    for &i in images {
        stack.ingester.ingest(&stack.ingest_pool[i]).map_err(|e| format!("ingest: {e}"))?;
    }
    let acked = Instant::now();
    if !stack.trainer.wait_for_refits(k as u64 + 1, CYCLE_TIMEOUT) {
        return Err(format!("burst {k}: no refit cycle within {CYCLE_TIMEOUT:?}"));
    }
    let cycle_ms = ms(acked.elapsed());
    let status = stack.trainer.status();
    let want_rows = rows0 + BURST * (k + 1);
    if status.rows != want_rows {
        return Err(format!("burst {k}: {} affinity rows, want {want_rows}", status.rows));
    }
    if status.last_outcome == Some(RefitOutcome::Failed) {
        return Err(format!("burst {k}: refit cycle failed"));
    }
    Ok(cycle_ms)
}

fn dev_accuracy(hard: &[usize], dev: &DevSet) -> f64 {
    let hits = dev.indices.iter().zip(&dev.labels).filter(|(&r, &l)| hard.get(r) == Some(&l));
    hits.count() as f64 / dev.len().max(1) as f64
}

/// The traced run's replay of the trainer's cycles: the same bursts, in
/// the same order, through the public calls one cycle is made of — append
/// (`affinity_rows_for`), refit (`refit_from_affinity`) and publish
/// (`with_models` + `SnapshotRegistry::publish`) — each inside a span.
/// Returns the labeler the replay ended on.
fn replay_cycles(
    boot: &TrainingBootstrap,
    config: &GogglesConfig,
    ingest_pool: &[Image],
    plan: &[crate::schedule::Burst],
    tr: &mut Tracer,
) -> Result<FittedLabeler, String> {
    let goggles = Goggles::new(config.clone());
    let mut labeler = boot.labeler.clone();
    let mut prev = labeler.frozen_model();
    let mut baseline = dev_accuracy(&boot.result.labels.hard_labels(), &boot.dev_rows);
    let mut data = boot.rows.as_slice().to_vec();
    let mut rows = boot.rows.rows();
    let registry = SnapshotRegistry::new(labeler.clone()).map_err(|e| e.to_string())?;
    let bank = labeler.bank();
    let (n, alpha, z_per_layer) = (bank.n, bank.alpha(), bank.z_per_layer);
    for (k, burst) in plan.iter().enumerate() {
        let trace = k as u64;
        let cycle = tr.begin("trainer.cycle", trace, None);
        let images: Vec<&Image> = burst.images.iter().map(|&i| &ingest_pool[i]).collect();
        let fresh =
            tr.span("trainer.append", trace, Some(cycle), || labeler.affinity_rows_for(&images, 1));
        data.extend_from_slice(fresh.as_slice());
        rows += fresh.rows();
        let matrix =
            Matrix::from_vec(rows, alpha * n, data.clone()).map_err(|e| format!("append: {e}"))?;
        let affinity = AffinityMatrix { data: matrix, n, alpha, z_per_layer };
        let selection = tr
            .span("trainer.refit", trace, Some(cycle), || {
                goggles.refit_from_affinity(&affinity, &boot.dev_rows, &prev)
            })
            .map_err(|e| format!("refit: {e}"))?;
        if selection.dev_score >= baseline - 1e-12 {
            let candidate = tr.span("trainer.publish", trace, Some(cycle), || {
                let candidate = labeler.with_models(&selection.model, selection.mapping.clone())?;
                registry.publish(candidate.clone())?;
                Ok::<_, goggles_serve::ServeError>(candidate)
            });
            labeler = candidate.map_err(|e| format!("publish: {e}"))?;
            baseline = selection.dev_score;
            prev = selection.model;
        }
        tr.end(cycle);
    }
    Ok(labeler)
}

pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let config = goggles_config(sys::nproc());
    let mut check = Checker::default();
    let mut setup_s = Vec::new();
    let mut stack: Option<Stack> = None;
    for _ in 0..SETUP_REPEATS {
        drop(stack.take());
        let t = Instant::now();
        stack = Some(set_up(args.seconds, &config)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let stack = stack.ok_or("no set-up")?;
    let pool = &stack.corpus.pool;
    let schedule = arrivals(args.seed, READ_RATE, args.seconds as f64, pool.len());
    let plan = bursts(args.seconds, BURST);
    let rows0 = stack.trainer.status().rows;

    let stats0 = stack.service.stats();
    heap::reset_peak();
    let start = Instant::now() + Duration::from_millis(50);
    let mut cycle_ms = Vec::with_capacity(plan.len());
    let mut burst_late_ms = Vec::with_capacity(plan.len());
    let replay = std::thread::scope(|scope| {
        let reads = scope.spawn(|| open_loop(&stack.reader, &stack.registry, pool, &schedule));
        for (k, burst) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(burst.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            burst_late_ms.push(ms(Instant::now().saturating_duration_since(due)));
            let outcome = send_burst(&stack, k, &burst.images, rows0);
            if let Ok(c) = outcome {
                cycle_ms.push(c);
            }
            check.record(outcome.map(drop));
        }
        reads.join()
    })
    .map_err(|_| "read load generator panicked".to_string())?;
    let peak_heap_mb = heap::peak_mb();
    let stats1 = stack.service.stats();
    let status = stack.trainer.status();
    check_answers(&replay, pool, config.threads, &mut check);
    let load = load_stats(&replay);
    let ingested = (status.rows - rows0) as f64;

    let mut detail = vec![
        ("read_rate", Json::from(READ_RATE)),
        ("burst", Json::from(BURST as f64)),
        ("reads", Json::from(schedule.len() as f64)),
        ("bursts", Json::from(plan.len() as f64)),
        ("rows", Json::from(status.rows as f64)),
        ("published", Json::from(status.published as f64)),
        ("refits", Json::from(status.refits as f64)),
        ("cycle_ms", Json::Arr(cycle_ms.iter().map(|&x| Json::from(x)).collect())),
        ("setup_s", Json::Arr(setup_s.iter().map(|&x| Json::from(x)).collect())),
    ];
    let current = stack.registry.get();
    let images: Vec<&Image> = pool.iter().map(|i| &**i).collect();
    let labels = current.labeler().label_batch(&images, config.threads).hard_labels();
    let truth = &stack.corpus.truth;
    let hits = labels.iter().zip(truth).filter(|(a, b)| a == b).count();
    detail.push(("answer_accuracy", Json::from(answer_accuracy(&replay, truth))));
    detail.push(("requests_detail", replay_json(&replay)));
    detail
        .push(("burst_late_ms", Json::Arr(burst_late_ms.iter().map(|&x| Json::from(x)).collect())));
    let mut metrics = vec![
        metric("setup_s", median(&setup_s)),
        metric("peak_heap_mb", peak_heap_mb),
        metric("cpu_ms_per_image", replay.cpu_s * 1e3 / (load.answered as f64 + ingested).max(1.0)),
        metric("accuracy", hits as f64 / truth.len().max(1) as f64),
        metric("images_per_s", (load.answered as f64 + ingested) / load.elapsed_s),
        metric("e2e.p50_ms", percentile(&load.latency_ms, 0.50)?),
        metric("e2e.p90_ms", percentile(&load.latency_ms, 0.90)?),
        metric("e2e.refit_cycle_ms", median(&cycle_ms)),
        metric("trainer.published_ratio", status.published as f64 / status.refits.max(1) as f64),
        metric(
            "service.mean_batch",
            (stats1.images - stats0.images) as f64
                / (stats1.batches - stats0.batches).max(1) as f64,
        ),
        metric("loadgen.late_p99_ms", percentile(&load.late_ms, 0.99)?),
        metric("loadgen.achieved_rate", load.achieved_rate),
        metric("client.p99_ms", percentile(&load.client_ms, 0.99)?),
    ];
    if args.trace {
        let mut tr = Tracer::new();
        let last = replay_cycles(&stack.bootstrap, &config, &stack.ingest_pool, &plan, &mut tr)?;
        // The trainer is deterministic: replaying its inputs must end on
        // the very labeler it published last.
        check.record(if **current.labeler() == last {
            Ok(())
        } else {
            Err("replayed cycles ended on another labeler than the trainer published".into())
        });
        let spans = tr.spans();
        let append = trace::median_ms(spans, "trainer.append");
        let refit = trace::median_ms(spans, "trainer.refit");
        let publish = trace::median_ms(spans, "trainer.publish");
        detail.push(("spans", trace::to_json(spans)));
        metrics.extend([
            metric("trainer.append_ms", append),
            metric("trainer.refit_ms", refit),
            metric("trainer.publish_ms", publish),
            metric("trace.remainder_ms", median(&cycle_ms) - (append + refit + publish)),
        ]);
    }
    drop(stack);
    Ok(Outcome { metrics, check, detail })
}
