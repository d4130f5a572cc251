//! Serving benchmark: single-image latency and micro-batched throughput of
//! the `goggles-serve` path versus a full batch (`label_dataset`) refit,
//! plus the model-lifecycle measurements: v2 snapshot compression
//! (size ratio, probability deviation, argmax agreement), a hot-swap
//! segment that publishes a new version under concurrent load, and a
//! **network segment** that round-trips the held-out set through the wire
//! protocol (`WireServer` + `RemoteLabeler` over loopback TCP): round-trip
//! p50/p99, pipelined throughput, and a bit-identity check against the
//! in-process path.
//!
//! Not a paper artifact — the paper's system is batch-only — but the
//! direct quantification of what the snapshot/fold-in subsystem buys: a
//! per-request cost that is O(image) instead of O(dataset), and a
//! retrain-and-republish path that never drops a request.

use super::report::Table;
use super::RunParams;
use goggles_core::Goggles;
use goggles_datasets::{generate, Dataset, DevSet, TaskKind};
use goggles_serve::{FittedLabeler, LabelService, Labeler, ServeConfig};
use goggles_vision::Image;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one serving-benchmark run measured.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Training images the labeler was fit on.
    pub n_train: usize,
    /// Held-out images served.
    pub n_held_out: usize,
    /// Wall-clock seconds of the one-time fit.
    pub fit_seconds: f64,
    /// Size of the serialized snapshot in bytes.
    pub snapshot_bytes: usize,
    /// p50 of single-image `label_one` latency, milliseconds.
    pub single_p50_ms: f64,
    /// Mean single-image `label_one` latency, milliseconds.
    pub single_mean_ms: f64,
    /// Images/second through the micro-batching service under concurrent
    /// clients.
    pub service_throughput_ips: f64,
    /// Mean micro-batch size the service assembled.
    pub service_mean_batch: f64,
    /// Mean request latency through the service, milliseconds.
    pub service_mean_latency_ms: f64,
    /// p50 request latency through the service, milliseconds (histogram
    /// bucket upper bound).
    pub service_p50_latency_ms: f64,
    /// p99 request latency through the service, milliseconds (histogram
    /// bucket upper bound) — the tail the mean hides.
    pub service_p99_latency_ms: f64,
    /// p50 of per-request queue wait inside the micro-batcher, ms.
    pub stage_queue_p50_ms: f64,
    /// p99 of per-request queue wait inside the micro-batcher, ms.
    pub stage_queue_p99_ms: f64,
    /// p50 of per-batch embed (im2col/GEMM trunk) time, ms.
    pub stage_embed_p50_ms: f64,
    /// p99 of per-batch embed time, ms.
    pub stage_embed_p99_ms: f64,
    /// p50 of per-batch affinity (prototype colmax) time, ms.
    pub stage_affinity_p50_ms: f64,
    /// p99 of per-batch affinity time, ms.
    pub stage_affinity_p99_ms: f64,
    /// p50 of per-batch end-model (fold-in + mapping) time, ms.
    pub stage_endmodel_p50_ms: f64,
    /// p99 of per-batch end-model time, ms.
    pub stage_endmodel_p99_ms: f64,
    /// Wall-clock seconds of a full transductive `label_dataset` refit over
    /// train + held-out (the only way the batch system can label new
    /// images).
    pub refit_seconds: f64,
    /// Served accuracy on the held-out images.
    pub served_accuracy: f64,
    /// Transductive batch-refit accuracy on the same images.
    pub batch_accuracy: f64,
    /// Size of the quantized v2 snapshot in bytes.
    pub snapshot_v2_bytes: usize,
    /// `snapshot_v2_bytes / snapshot_bytes` (acceptance: ≤ 0.5).
    pub v2_size_ratio: f64,
    /// Max per-class probability deviation of the v2-reloaded labeler vs
    /// the exact one, over the held-out split (acceptance: < 1e-3).
    pub v2_max_prob_dev: f64,
    /// Fraction of held-out images whose argmax label is unchanged under
    /// the v2 reload (acceptance: 1.0).
    pub v2_argmax_agreement: f64,
    /// Requests answered during the hot-swap segment (concurrent clients
    /// running while `publish` lands).
    pub swap_requests: u64,
    /// Responses during the swap that errored or matched neither published
    /// version bit-exactly (acceptance: 0).
    pub swap_errors: u64,
    /// Wall-clock milliseconds the `publish` call took under load.
    pub swap_publish_ms: f64,
    /// Requests served on the old version during the swap segment.
    pub swap_served_v1: u64,
    /// Requests served on the newly published version during the swap
    /// segment.
    pub swap_served_v2: u64,
    /// Held-out images round-tripped through `goggles-served`'s wire
    /// protocol (loopback TCP) one at a time.
    pub net_requests: u64,
    /// p50 of the sequential network round trip (client-measured),
    /// milliseconds.
    pub net_roundtrip_p50_ms: f64,
    /// p99 of the sequential network round trip (client-measured),
    /// milliseconds.
    pub net_roundtrip_p99_ms: f64,
    /// Images/second through one pipelined `RemoteLabeler` connection
    /// (every request on the wire before the first reply is awaited).
    pub net_throughput_ips: f64,
    /// Remote responses that were not bit-identical (label, probs, version)
    /// to in-process `label_one` (acceptance: 0).
    pub net_mismatches: u64,
}

impl ServingReport {
    /// Amortized per-image serving time vs one refit labeling the same
    /// held-out set (> 1 means serving is cheaper per image).
    pub fn speedup_vs_refit(&self) -> f64 {
        if self.service_throughput_ips <= 0.0 {
            return 0.0;
        }
        let serve_per_image = 1.0 / self.service_throughput_ips;
        let refit_per_image = self.refit_seconds / self.n_held_out.max(1) as f64;
        refit_per_image / serve_per_image
    }

    /// Text table for the bench harness.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new("Serving: snapshot inference vs batch refit", &["metric", "value"]);
        let mut row = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
        row("train images (N)", format!("{}", self.n_train));
        row("held-out images served", format!("{}", self.n_held_out));
        row("one-time fit", format!("{:.3} s", self.fit_seconds));
        row("snapshot size", format!("{:.1} KiB", self.snapshot_bytes as f64 / 1024.0));
        row("single-image p50 latency", format!("{:.2} ms", self.single_p50_ms));
        row("single-image mean latency", format!("{:.2} ms", self.single_mean_ms));
        row("service throughput", format!("{:.0} img/s", self.service_throughput_ips));
        row("service mean batch size", format!("{:.2}", self.service_mean_batch));
        row("service mean latency", format!("{:.2} ms", self.service_mean_latency_ms));
        row("service p50 latency", format!("{:.2} ms", self.service_p50_latency_ms));
        row("service p99 latency", format!("{:.2} ms", self.service_p99_latency_ms));
        row(
            "stage queue wait p50 / p99",
            format!("{:.2} / {:.2} ms", self.stage_queue_p50_ms, self.stage_queue_p99_ms),
        );
        row(
            "stage embed p50 / p99",
            format!("{:.2} / {:.2} ms", self.stage_embed_p50_ms, self.stage_embed_p99_ms),
        );
        row(
            "stage affinity p50 / p99",
            format!("{:.2} / {:.2} ms", self.stage_affinity_p50_ms, self.stage_affinity_p99_ms),
        );
        row(
            "stage end-model p50 / p99",
            format!("{:.2} / {:.2} ms", self.stage_endmodel_p50_ms, self.stage_endmodel_p99_ms),
        );
        row("batch refit (train+held-out)", format!("{:.3} s", self.refit_seconds));
        row("per-image speedup vs refit", format!("{:.1}×", self.speedup_vs_refit()));
        row("served accuracy", format!("{:.1}%", 100.0 * self.served_accuracy));
        row("batch-refit accuracy", format!("{:.1}%", 100.0 * self.batch_accuracy));
        row("v2 snapshot size", format!("{:.1} KiB", self.snapshot_v2_bytes as f64 / 1024.0));
        row("v2 / v1 size ratio", format!("{:.1}%", 100.0 * self.v2_size_ratio));
        row("v2 max probability deviation", format!("{:.2e}", self.v2_max_prob_dev));
        row("v2 argmax agreement", format!("{:.1}%", 100.0 * self.v2_argmax_agreement));
        row("swap segment requests", format!("{}", self.swap_requests));
        row("swap segment errors", format!("{}", self.swap_errors));
        row("publish latency under load", format!("{:.2} ms", self.swap_publish_ms));
        row("swap served on v1 / v2", format!("{} / {}", self.swap_served_v1, self.swap_served_v2));
        row("network round trips", format!("{}", self.net_requests));
        row("network round-trip p50", format!("{:.2} ms", self.net_roundtrip_p50_ms));
        row("network round-trip p99", format!("{:.2} ms", self.net_roundtrip_p99_ms));
        row("network throughput (pipelined)", format!("{:.0} img/s", self.net_throughput_ips));
        row("network answer mismatches", format!("{}", self.net_mismatches));
        t
    }

    /// Hand-rolled JSON summary (the `BENCH_serving.json` artifact).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"n_train\": {},\n  \"n_held_out\": {},\n  \"fit_seconds\": {:.6},\n  \
             \"snapshot_bytes\": {},\n  \"single_p50_ms\": {:.4},\n  \"single_mean_ms\": {:.4},\n  \
             \"service_throughput_ips\": {:.2},\n  \"service_mean_batch\": {:.3},\n  \
             \"service_mean_latency_ms\": {:.4},\n  \"service_p50_latency_ms\": {:.4},\n  \
             \"service_p99_latency_ms\": {:.4},\n  \
             \"stage_queue_p50_ms\": {:.4},\n  \"stage_queue_p99_ms\": {:.4},\n  \
             \"stage_embed_p50_ms\": {:.4},\n  \"stage_embed_p99_ms\": {:.4},\n  \
             \"stage_affinity_p50_ms\": {:.4},\n  \"stage_affinity_p99_ms\": {:.4},\n  \
             \"stage_endmodel_p50_ms\": {:.4},\n  \"stage_endmodel_p99_ms\": {:.4},\n  \
             \"refit_seconds\": {:.6},\n  \
             \"speedup_vs_refit\": {:.2},\n  \"served_accuracy\": {:.4},\n  \
             \"batch_accuracy\": {:.4},\n  \"snapshot_v2_bytes\": {},\n  \
             \"v2_size_ratio\": {:.4},\n  \"v2_max_prob_dev\": {:.3e},\n  \
             \"v2_argmax_agreement\": {:.4},\n  \"swap_requests\": {},\n  \
             \"swap_errors\": {},\n  \"swap_publish_ms\": {:.4},\n  \
             \"swap_served_v1\": {},\n  \"swap_served_v2\": {},\n  \
             \"net_requests\": {},\n  \"net_roundtrip_p50_ms\": {:.4},\n  \
             \"net_roundtrip_p99_ms\": {:.4},\n  \"net_throughput_ips\": {:.2},\n  \
             \"net_mismatches\": {}\n}}\n",
            self.n_train,
            self.n_held_out,
            self.fit_seconds,
            self.snapshot_bytes,
            self.single_p50_ms,
            self.single_mean_ms,
            self.service_throughput_ips,
            self.service_mean_batch,
            self.service_mean_latency_ms,
            self.service_p50_latency_ms,
            self.service_p99_latency_ms,
            self.stage_queue_p50_ms,
            self.stage_queue_p99_ms,
            self.stage_embed_p50_ms,
            self.stage_embed_p99_ms,
            self.stage_affinity_p50_ms,
            self.stage_affinity_p99_ms,
            self.stage_endmodel_p50_ms,
            self.stage_endmodel_p99_ms,
            self.refit_seconds,
            self.speedup_vs_refit(),
            self.served_accuracy,
            self.batch_accuracy,
            self.snapshot_v2_bytes,
            self.v2_size_ratio,
            self.v2_max_prob_dev,
            self.v2_argmax_agreement,
            self.swap_requests,
            self.swap_errors,
            self.swap_publish_ms,
            self.swap_served_v1,
            self.swap_served_v2,
            self.net_requests,
            self.net_roundtrip_p50_ms,
            self.net_roundtrip_p99_ms,
            self.net_throughput_ips,
            self.net_mismatches,
        )
    }

    /// Write the JSON artifact.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Run the serving benchmark at the given scale parameters.
pub fn run(params: &RunParams) -> ServingReport {
    let seed = 7u64;
    let mut task = goggles_datasets::TaskConfig::new(
        TaskKind::Cub { class_a: 0, class_b: 1 },
        params.n_train_per_class,
        params.n_test_per_class.max(8),
        seed,
    );
    task.image_size = params.image_size;
    let ds = generate(&task);
    let dev = ds.sample_dev_set(params.dev_per_class, seed);
    let config = params.goggles_config(seed);

    // one-time fit + freeze
    let t0 = Instant::now();
    let (labeler, _) = FittedLabeler::fit(&config, &ds, &dev).expect("fit failed");
    let fit_seconds = t0.elapsed().as_secs_f64();
    let snapshot_bytes = labeler.save().len();

    let held_out = ds.test_images();
    let truth = ds.test_labels();

    // single-image latency distribution (direct, no queueing): one image
    // on one thread, exactly what a service worker does per request.
    let mut singles: Vec<f64> = Vec::with_capacity(held_out.len());
    for img in &held_out {
        let t = Instant::now();
        let _ = labeler.label_one(img);
        singles.push(t.elapsed().as_secs_f64() * 1e3);
    }
    singles.sort_by(|a, b| a.total_cmp(b));
    let single_p50_ms = singles[singles.len() / 2];
    let single_mean_ms = singles.iter().sum::<f64>() / singles.len() as f64;

    // v2 compression: quantized snapshot size + bounded accuracy delta
    let v2_bytes = labeler.save_v2(true);
    let snapshot_v2_bytes = v2_bytes.len();
    let v2_size_ratio = snapshot_v2_bytes as f64 / snapshot_bytes.max(1) as f64;
    let swapped = FittedLabeler::load(&v2_bytes).expect("v2 snapshot reload failed");
    let served = labeler.label_batch(&held_out, 2);
    let served_accuracy = served.accuracy(&truth);
    let served_v2 = swapped.label_batch(&held_out, 2);
    let v2_max_prob_dev = served_v2.probs.max_abs_diff(&served.probs);
    let v2_argmax_agreement =
        served.hard_labels().iter().zip(served_v2.hard_labels()).filter(|(a, b)| **a == *b).count()
            as f64
            / held_out.len().max(1) as f64;

    // micro-batched throughput with concurrent clients
    let service = Arc::new(LabelService::spawn(
        labeler.clone(),
        ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(4),
            ..ServeConfig::default()
        },
    ));
    let t1 = Instant::now();
    let handles: Vec<_> = held_out
        .iter()
        .map(|img| {
            let service = Arc::clone(&service);
            let img = (*img).clone();
            std::thread::spawn(move || service.label(&img).expect("service closed"))
        })
        .collect();
    for h in handles {
        let _ = h.join().expect("client thread");
    }
    let service_seconds = t1.elapsed().as_secs_f64();
    let stats = service.stats();
    let service_throughput_ips = stats.requests as f64 / service_seconds;
    let service_mean_batch = stats.mean_batch_size();
    let service_mean_latency_ms = stats.mean_latency_us() / 1e3;
    let service_p50_latency_ms = stats.p50_latency_us() as f64 / 1e3;
    let service_p99_latency_ms = stats.p99_latency_us() as f64 / 1e3;
    // Per-stage breakdown from the service's observability registry: where
    // a request's latency actually went (queue wait vs the three labeling
    // stages). Percentiles are histogram bucket upper bounds, like the
    // end-to-end latency above.
    let stages = service.stage_stats();
    let p = |h: &goggles_obs::HistogramSnapshot, q: f64| h.quantile_upper(q) as f64 / 1e3;
    let stage_queue_p50_ms = p(&stages.queue_wait, 0.50);
    let stage_queue_p99_ms = p(&stages.queue_wait, 0.99);
    let stage_embed_p50_ms = p(&stages.embed, 0.50);
    let stage_embed_p99_ms = p(&stages.embed, 0.99);
    let stage_affinity_p50_ms = p(&stages.affinity, 0.50);
    let stage_affinity_p99_ms = p(&stages.affinity, 0.99);
    let stage_endmodel_p50_ms = p(&stages.endmodel, 0.50);
    let stage_endmodel_p99_ms = p(&stages.endmodel, 0.99);
    drop(service);

    // network front: the same labeler behind goggles-served's wire
    // protocol on a loopback TCP connection. Sequential round trips give
    // the latency distribution; a pipelined label_all gives throughput.
    // Every remote answer must be bit-identical (label, probs, version) to
    // the in-process label_one path.
    // Zero linger: sequential round trips would otherwise pay the full
    // batch timeout per request (there is no concurrent traffic to share a
    // batch with); pipelined throughput still batches from queue backlog.
    let net_service = Arc::new(LabelService::spawn(
        labeler.clone(),
        ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::ZERO,
            ..ServeConfig::default()
        },
    ));
    let net_server = goggles_serve::WireServer::bind("127.0.0.1:0", Arc::clone(&net_service), 2)
        .expect("bind wire server");
    let client =
        goggles_serve::RemoteLabeler::connect(net_server.local_addr()).expect("connect client");
    let _ = client.label(held_out[0]); // connection + scratch warm-up
    let mut net_mismatches = 0u64;
    let mut round_trips: Vec<f64> = Vec::with_capacity(held_out.len());
    for img in &held_out {
        let (expected_label, expected_probs) = labeler.label_one(img);
        let t = Instant::now();
        let resp = client.label(img).expect("network label");
        round_trips.push(t.elapsed().as_secs_f64() * 1e3);
        if resp.label != expected_label || resp.probs != expected_probs || resp.version != 1 {
            net_mismatches += 1;
        }
    }
    round_trips.sort_by(|a, b| a.total_cmp(b));
    let net_roundtrip_p50_ms = round_trips[round_trips.len() / 2];
    let net_roundtrip_p99_ms = round_trips[(round_trips.len() * 99) / 100];
    let net_requests = round_trips.len() as u64;
    let t_net = Instant::now();
    let piped = client.label_all(&held_out).expect("pipelined network labeling");
    let net_throughput_ips = piped.len() as f64 / t_net.elapsed().as_secs_f64();
    drop(client);
    drop(net_server);
    drop(net_service);

    // hot-swap under load: concurrent clients hammer a fresh service while
    // the quantized v2 snapshot is published behind it. Every response must
    // match one of the two published versions bit-exactly; anything else
    // (including an error) counts as a swap error.
    let swap_service = Arc::new(LabelService::spawn(
        labeler,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    ));
    let swap_errors = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let service = Arc::clone(&swap_service);
            let errors = Arc::clone(&swap_errors);
            let images: Vec<Image> = held_out.iter().map(|img| (*img).clone()).collect();
            let expected_v1 = served.probs.clone();
            let expected_v2 = served_v2.probs.clone();
            std::thread::spawn(move || {
                for _round in 0..3 {
                    for (i, img) in images.iter().enumerate() {
                        match service.label(img) {
                            Ok(resp)
                                if resp.probs.as_slice() == expected_v1.row(i)
                                    || resp.probs.as_slice() == expected_v2.row(i) => {}
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(25));
    let t_pub = Instant::now();
    swap_service.registry().publish(swapped).expect("publish under load failed");
    let swap_publish_ms = t_pub.elapsed().as_secs_f64() * 1e3;
    for c in clients {
        c.join().expect("swap client");
    }
    // post-swap verification round: every answer must now be the new
    // version's direct label_batch output
    for (i, img) in held_out.iter().enumerate() {
        match swap_service.label(img) {
            Ok(resp) if resp.probs.as_slice() == served_v2.probs.row(i) && resp.version == 2 => {}
            _ => {
                swap_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let swap_stats = swap_service.stats();
    let versions = swap_service.registry().versions();
    let swap_served_v1 = versions.first().map_or(0, |v| v.served);
    let swap_served_v2 = versions.get(1).map_or(0, |v| v.served);
    let swap_requests = swap_stats.requests;
    let swap_errors = swap_errors.load(Ordering::Relaxed);
    drop(swap_service);

    // the batch system's only path to new labels: transductive refit
    let all: Vec<(Image, usize)> = ds
        .train_indices
        .iter()
        .chain(&ds.test_indices)
        .map(|&i| (ds.images[i].clone(), ds.labels[i]))
        .collect();
    let transductive = Dataset::from_parts(ds.name.clone(), ds.kind, ds.num_classes, all, vec![]);
    let dev_rows = DevSet {
        indices: dev
            .indices
            .iter()
            .map(|&g| {
                ds.train_indices.iter().position(|&t| t == g).expect("dev index in training block")
            })
            .collect(),
        labels: dev.labels.clone(),
    };
    let t2 = Instant::now();
    let batch_result =
        Goggles::new(config).label_dataset(&transductive, &dev_rows).expect("batch refit failed");
    let refit_seconds = t2.elapsed().as_secs_f64();
    let hard = batch_result.labels.hard_labels();
    let n_train = ds.train_indices.len();
    let batch_accuracy = (0..truth.len()).filter(|&i| hard[n_train + i] == truth[i]).count() as f64
        / truth.len().max(1) as f64;

    ServingReport {
        n_train,
        n_held_out: held_out.len(),
        fit_seconds,
        snapshot_bytes,
        single_p50_ms,
        single_mean_ms,
        service_throughput_ips,
        service_mean_batch,
        service_mean_latency_ms,
        service_p50_latency_ms,
        service_p99_latency_ms,
        stage_queue_p50_ms,
        stage_queue_p99_ms,
        stage_embed_p50_ms,
        stage_embed_p99_ms,
        stage_affinity_p50_ms,
        stage_affinity_p99_ms,
        stage_endmodel_p50_ms,
        stage_endmodel_p99_ms,
        refit_seconds,
        served_accuracy,
        batch_accuracy,
        snapshot_v2_bytes,
        v2_size_ratio,
        v2_max_prob_dev,
        v2_argmax_agreement,
        swap_requests,
        swap_errors,
        swap_publish_ms,
        swap_served_v1,
        swap_served_v2,
        net_requests,
        net_roundtrip_p50_ms,
        net_roundtrip_p99_ms,
        net_throughput_ips,
        net_mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_parseable_by_eye_and_balanced() {
        let report = ServingReport {
            n_train: 10,
            n_held_out: 5,
            fit_seconds: 0.5,
            snapshot_bytes: 1024,
            single_p50_ms: 1.5,
            single_mean_ms: 2.0,
            service_throughput_ips: 100.0,
            service_mean_batch: 3.5,
            service_mean_latency_ms: 4.0,
            service_p50_latency_ms: 3.0,
            service_p99_latency_ms: 9.0,
            stage_queue_p50_ms: 0.5,
            stage_queue_p99_ms: 2.0,
            stage_embed_p50_ms: 2.0,
            stage_embed_p99_ms: 4.0,
            stage_affinity_p50_ms: 0.1,
            stage_affinity_p99_ms: 0.3,
            stage_endmodel_p50_ms: 0.05,
            stage_endmodel_p99_ms: 0.1,
            refit_seconds: 1.0,
            served_accuracy: 0.96,
            batch_accuracy: 0.95,
            snapshot_v2_bytes: 500,
            v2_size_ratio: 0.488,
            v2_max_prob_dev: 3.2e-5,
            v2_argmax_agreement: 1.0,
            swap_requests: 180,
            swap_errors: 0,
            swap_publish_ms: 0.4,
            swap_served_v1: 100,
            swap_served_v2: 80,
            net_requests: 5,
            net_roundtrip_p50_ms: 0.8,
            net_roundtrip_p99_ms: 2.5,
            net_throughput_ips: 900.0,
            net_mismatches: 0,
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "n_train",
            "single_p50_ms",
            "service_throughput_ips",
            "service_p50_latency_ms",
            "service_p99_latency_ms",
            "stage_queue_p50_ms",
            "stage_queue_p99_ms",
            "stage_embed_p50_ms",
            "stage_embed_p99_ms",
            "stage_affinity_p50_ms",
            "stage_affinity_p99_ms",
            "stage_endmodel_p50_ms",
            "stage_endmodel_p99_ms",
            "speedup_vs_refit",
            "served_accuracy",
            "snapshot_v2_bytes",
            "v2_size_ratio",
            "v2_max_prob_dev",
            "swap_requests",
            "swap_errors",
            "swap_publish_ms",
            "net_requests",
            "net_roundtrip_p50_ms",
            "net_roundtrip_p99_ms",
            "net_throughput_ips",
            "net_mismatches",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        // refit labels 5 images in 1 s → 0.2 s/img; serving at 100 img/s →
        // 0.01 s/img → 20× speedup.
        assert!((report.speedup_vs_refit() - 20.0).abs() < 1e-9);
        let table = report.to_table();
        assert!(table.render().contains("img/s"));
    }
}
