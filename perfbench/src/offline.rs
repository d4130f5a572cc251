//! `label-offline`: the paper's batch pipeline, `Goggles::label_dataset`,
//! over the five Table-1 tasks (N = 100 each), timed over many warm
//! passes on the same inputs. This is the fit loop: the CNN and the
//! affinity kernel do most of the work; service, wire and trainer none.

use crate::check::Checker;
use crate::json::Json;
use crate::schedule::{permutation, sub_seed, Rng};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{goggles_config, heap, metric, sys, Args, Outcome, CORPUS_SEED, SETUP_REPEATS};
use goggles_core::prototypes::embed_images;
use goggles_core::{
    apply_mapping, map_clusters_via_dev_set, AffinityMatrix, Goggles, GogglesConfig,
    HierarchicalModel, HierarchicalOptions, ProbabilisticLabels, PrototypeBank,
};
use goggles_datasets::{cub, generate, gtsrb, Dataset, DevSet, TaskConfig, TaskKind};
use std::time::Instant;

/// Training images per class of every task (N = 100 per task).
const TRAIN_PER_CLASS: usize = 50;
/// Dev-set labels per class (the paper's default).
const DEV_PER_CLASS: usize = 5;
/// Passes timed at least, however long they take.
const MIN_PASSES: usize = 3;

struct Setup {
    goggles: Goggles,
    tasks: Vec<(Dataset, DevSet)>,
}

/// Generate the five tasks of the paper-scale experiment's first trial
/// (its class pairs, seeds and dev sets), build the backbone, and warm
/// the pipeline up on the first task.
fn set_up(config: &GogglesConfig) -> Result<Setup, String> {
    let (ca, cb) = cub::class_pairs(3, 0xC0B)[0];
    let (ga, gb) = gtsrb::class_pairs(3, 0x675)[0];
    let kinds = [
        TaskKind::Cub { class_a: ca, class_b: cb },
        TaskKind::Gtsrb { class_a: ga, class_b: gb },
        TaskKind::Surface,
        TaskKind::TbXray,
        TaskKind::PnXray,
    ];
    let tasks: Vec<(Dataset, DevSet)> = kinds
        .iter()
        .map(|&kind| {
            let ds = generate(&TaskConfig::new(kind, TRAIN_PER_CLASS, 0, CORPUS_SEED));
            let dev = ds.sample_dev_set(DEV_PER_CLASS, CORPUS_SEED);
            (ds, dev)
        })
        .collect();
    let goggles = Goggles::new(config.clone());
    let (ds, dev) = &tasks[0];
    goggles.label_dataset(ds, dev).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Setup { goggles, tasks })
}

/// One task through the pipeline, split at the layer boundaries
/// `label_dataset` crosses, each call inside a span. Returns the hard
/// labels and the EM iterations summed over base models and ensemble.
fn traced_task(
    g: &Goggles,
    tr: &mut Tracer,
    task: u64,
    parent: usize,
    ds: &Dataset,
    dev: &DevSet,
) -> Result<(Vec<usize>, usize), String> {
    let c = g.config();
    let root = tr.begin("task", task, Some(parent));
    let images = ds.train_images();
    let emb = tr.span("cnn.embed", task, Some(root), || {
        embed_images(g.backbone(), &images, c.top_z, c.threads, c.center_patches)
    });
    let bank = tr.span("affinity.bank", task, Some(root), || PrototypeBank::from_embeddings(&emb));
    let data = tr.span("affinity.matrix", task, Some(root), || bank.affinity_rows(&emb, c.threads));
    let affinity =
        AffinityMatrix { data, n: bank.n, alpha: bank.alpha(), z_per_layer: bank.z_per_layer };
    let opts = HierarchicalOptions {
        num_classes: c.num_classes,
        em: c.em,
        one_hot: c.one_hot,
        threads: c.threads,
        seed: c.seed,
    };
    let model = tr
        .span("em.fit", task, Some(root), || HierarchicalModel::fit(&affinity, &opts))
        .map_err(|e| format!("EM: {e}"))?;
    let iterations = model.base_models.iter().map(|m| m.stats.iterations).sum::<usize>()
        + model.ensemble.stats.iterations;
    let labels = tr.span("endmodel", task, Some(root), || {
        let dev_rows = dev_in_row_space(ds, dev);
        let mapping = map_clusters_via_dev_set(&model.responsibilities, &dev_rows);
        ProbabilisticLabels { probs: apply_mapping(&model.responsibilities, &mapping) }
    });
    tr.end(root);
    Ok((labels.hard_labels(), iterations))
}

/// The dev set's global indices as rows of the training block.
fn dev_in_row_space(ds: &Dataset, dev: &DevSet) -> DevSet {
    let indices = dev
        .indices
        .iter()
        .map(|i| ds.train_indices.iter().position(|t| t == i).unwrap_or(usize::MAX))
        .collect();
    DevSet { indices, labels: dev.labels.clone() }
}

/// Order-sensitive FNV-1a digest of hard labels, written to the output
/// file so traced and untraced runs of one seed can be compared.
fn digest(labels: &[Vec<usize>]) -> f64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for l in labels.iter().flatten() {
        h = (h ^ *l as u64).wrapping_mul(0x0100_0000_01B3);
    }
    (h >> 11) as f64
}

pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let config = goggles_config(sys::nproc());
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(set_up(&config)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup { goggles, tasks } = setup.ok_or("no set-up")?;
    let images_per_pass: usize = tasks.iter().map(|(ds, _)| ds.train_indices.len()).sum();

    let mut check = Checker::default();
    let mut reference: Option<Vec<Vec<usize>>> = None;
    let mut accuracy = 0.0;
    let mut pass_ms = Vec::new();
    let mut task_ms = Vec::new();
    // Per image: time from the start of its pass until its label exists.
    let mut image_ms = Vec::new();
    let mut tr = Tracer::new();
    let mut traced_pass_ms = Vec::new();
    let mut iterations = Vec::new();
    let budget = args.seconds as f64;
    let mut rng = Rng::new(sub_seed(args.seed, 3));
    let mut pass_cpu_ms = Vec::new();
    heap::reset_peak();
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let typical = median(&pass_ms) / 1e3 * if args.trace { 2.0 } else { 1.0 };
        if pass_ms.len() >= MIN_PASSES && elapsed + typical > budget {
            break;
        }
        // The seed decides the order the tasks are labeled in, per pass.
        let order = permutation(&mut rng, tasks.len());
        let start = Instant::now();
        let cpu0 = sys::cpu_seconds();
        let mut labels = vec![Vec::new(); tasks.len()];
        for &t in &order {
            let (ds, dev) = &tasks[t];
            let call = Instant::now();
            let result = goggles.label_dataset(ds, dev).map_err(|e| format!("{}: {e}", ds.name))?;
            task_ms.push(call.elapsed().as_secs_f64() * 1e3);
            let done = start.elapsed().as_secs_f64() * 1e3;
            image_ms.extend(std::iter::repeat_n(done, ds.train_indices.len()));
            if reference.is_none() {
                accuracy += result.accuracy_excluding_dev(ds, dev) / tasks.len() as f64;
            }
            labels[t] = result.labels.hard_labels();
        }
        pass_ms.push(start.elapsed().as_secs_f64() * 1e3);
        pass_cpu_ms.push((sys::cpu_seconds() - cpu0) * 1e3);
        let want = reference.get_or_insert_with(|| labels.clone());
        check.labels(&format!("pass {}", pass_ms.len()), &labels.concat(), &want.concat());
        if args.trace {
            let pass = tr.begin("pass", pass_ms.len() as u64, None);
            let mut traced = Vec::with_capacity(tasks.len());
            for (i, (ds, dev)) in tasks.iter().enumerate() {
                let (hard, iters) = traced_task(&goggles, &mut tr, i as u64, pass, ds, dev)?;
                traced.push(hard);
                iterations.push(iters as f64);
            }
            tr.end(pass);
            traced_pass_ms.push(tr.duration_ms(pass));
            check.labels("traced pass", &traced.concat(), &want.concat());
        }
    }

    let peak_heap_mb = heap::peak_mb();
    let mut metrics = vec![
        metric("setup_s", median(&setup_s)),
        metric("peak_heap_mb", peak_heap_mb),
        metric("cpu_ms_per_image", median(&pass_cpu_ms) / images_per_pass as f64),
        metric("accuracy", accuracy),
        metric("images_per_s", images_per_pass as f64 / (median(&pass_ms) * 1e-3)),
        metric("e2e.p50_ms", percentile(&image_ms, 0.50)?),
        metric("e2e.p90_ms", percentile(&image_ms, 0.90)?),
        metric("e2e.refit_cycle_ms", median(&task_ms)),
    ];
    if args.trace {
        let spans = tr.spans();
        let self_ns = trace::self_times_ns(spans);
        let embed_ms = trace::median_ms(spans, "cnn.embed");
        let per_image = embed_ms / (2 * TRAIN_PER_CLASS) as f64;
        let flops = goggles.backbone().forward_flops_per_image() as f64;
        let em_ms = trace::median_ms(spans, "em.fit");
        let em_iters = median(&iterations);
        // What the layer spans leave of a traced pass — the self time of
        // the pass and task spans — is the unaccounted remainder.
        let remainder_ns: u64 = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == "pass" || s.name == "task")
            .map(|(_, &ns)| ns)
            .sum();
        let remainder_ms = remainder_ns as f64 / 1e6 / traced_pass_ms.len().max(1) as f64;
        metrics.extend([
            metric("cnn.embed_ms_per_image", per_image),
            metric("cnn.gflops", flops / (per_image * 1e-3) / 1e9),
            metric("affinity.bank_ms", trace::median_ms(spans, "affinity.bank")),
            metric("affinity.matrix_ms", trace::median_ms(spans, "affinity.matrix")),
            metric("em.fit_ms", em_ms),
            metric("em.iterations", em_iters),
            metric("em.ms_per_iteration", em_ms / em_iters.max(1.0)),
            metric("endmodel.ms", trace::median_ms(spans, "endmodel")),
            metric("trace.remainder_ms", remainder_ms),
            metric("trace.overhead_ms", median(&traced_pass_ms) - median(&pass_ms)),
        ]);
    }
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::from(x)).collect());
    let mut detail = vec![
        ("setup_s", nums(&setup_s)),
        ("pass_ms", nums(&pass_ms)),
        ("task_ms", nums(&task_ms)),
        ("images_per_pass", Json::from(images_per_pass as f64)),
        ("labels_digest", Json::from(reference.as_deref().map_or(0.0, digest))),
        ("accuracy", Json::from(accuracy)),
    ];
    if args.trace {
        detail.push(("traced_pass_ms", nums(&traced_pass_ms)));
        detail.push(("spans", trace::to_json(tr.spans())));
    }
    Ok(Outcome { metrics, check, detail })
}
