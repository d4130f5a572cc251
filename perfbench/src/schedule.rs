//! Load schedules: seeded open-loop arrival times and the image each
//! request carries, and the fixed ingest bursts of the refit workload.
//! Everything here is a pure function of its arguments, so two runs with
//! one seed send the same requests at the same offsets.

/// SplitMix64: a small, fast, well-mixed generator for schedules.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Derive an independent sub-seed for one purpose from the run seed.
pub(crate) fn sub_seed(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// One scheduled read: when it is due (seconds after the start of the
/// timed window) and which pool image it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Arrival {
    pub(crate) due_s: f64,
    pub(crate) image: usize,
}

/// A Poisson arrival process at `rate` per second over `seconds`,
/// conditioned on its count: exactly `round(rate · seconds)` arrivals at
/// sorted uniform times. Conditioning fixes the amount of work per run,
/// which keeps run-to-run spread down without changing the process's
/// burstiness. Images are drawn from a pool of `pool` in a seeded order
/// that visits every image once before any repeats.
pub(crate) fn arrivals(seed: u64, rate: f64, seconds: f64, pool: usize) -> Vec<Arrival> {
    let n = (rate * seconds).round() as usize;
    let mut rng = Rng::new(sub_seed(seed, 1));
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        order.extend(permutation(&mut rng, pool));
    }
    times.into_iter().zip(order).map(|(due_s, image)| Arrival { due_s, image }).collect()
}

/// One ingest burst: when it is due and which ingest-pool images it sends.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Burst {
    pub(crate) due_s: f64,
    pub(crate) images: Vec<usize>,
}

/// One burst of `size` images per second, due at `k + 0.5` s for every
/// whole second `k` of the window; burst `k` sends ingest-pool images
/// `k·size .. (k+1)·size`, so every image is sent once. The plan does not
/// depend on the seed: each burst trains alone, and with a fixed plan
/// every run asks the trainer for the same refit work.
pub(crate) fn bursts(seconds: usize, size: usize) -> Vec<Burst> {
    (0..seconds)
        .map(|k| Burst { due_s: k as f64 + 0.5, images: (k * size..(k + 1) * size).collect() })
        .collect()
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub(crate) fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_arrivals_and_bursts() {
        assert_eq!(arrivals(7, 80.0, 5.0, 400), arrivals(7, 80.0, 5.0, 400));
        assert_eq!(bursts(5, 8), bursts(5, 8));
        assert_ne!(arrivals(7, 80.0, 5.0, 400), arrivals(8, 80.0, 5.0, 400));
    }

    #[test]
    fn arrivals_have_the_rate_and_stay_in_the_window() {
        let a = arrivals(3, 40.0, 10.0, 400);
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.iter().all(|x| (0.0..10.0).contains(&x.due_s)));
        // The first pass over the pool visits every image exactly once.
        let mut seen: Vec<usize> = a.iter().map(|x| x.image).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn bursts_send_every_ingest_image_once() {
        let b = bursts(6, 8);
        assert_eq!(b.len(), 6);
        assert!(b.iter().all(|x| x.images.len() == 8));
        assert_eq!(b[2].due_s, 2.5);
        let mut all: Vec<usize> = b.iter().flat_map(|x| x.images.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..48).collect::<Vec<_>>());
    }
}
