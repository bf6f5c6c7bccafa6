//! Seeded op streams. Every workload's inputs come from one SplitMix64
//! generator seeded by `--seed`; the same seed gives the same stream, and
//! the program under test sees only the generated inputs.

use std::collections::HashSet;

use modelzoo::{Domain, ModelConfig};

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The Figure 7–10 model-size range and point count per domain.
const SWEEP_LO_PARAMS: u64 = 1_000_000;
const SWEEP_HI_PARAMS: u64 = 1_000_000_000;
const SWEEP_POINTS_PER_DOMAIN: usize = 9;

/// The 45-point `sweep-warm` grid (5 domains × 9 log-spaced sizes at each
/// domain's default subbatch), in a seeded order. Every op re-prices this
/// same job list, so every op does the same work.
pub fn sweep_jobs(seed: u64) -> Vec<(ModelConfig, u64)> {
    let mut jobs: Vec<(ModelConfig, u64)> = Domain::ALL
        .into_iter()
        .flat_map(|d| {
            modelzoo::sweep_configs(d, SWEEP_LO_PARAMS, SWEEP_HI_PARAMS, SWEEP_POINTS_PER_DOMAIN)
                .into_iter()
                .map(move |cfg| (cfg, d.default_subbatch()))
        })
        .collect();
    Rng::new(seed).shuffle(&mut jobs);
    jobs
}

/// `k` distinct indices into `0..n`, seeded (the untimed sample checks).
pub(crate) fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::new(seed ^ 0x5eed_c0de).shuffle(&mut idx);
    idx.truncate(k.min(n));
    idx
}

/// Prompt length of every `serve-fresh` request.
const FRESH_PROMPT: u64 = 128;
/// Largest context `/v1/infer/*` accepts.
const FRESH_MAX_CONTEXT: u64 = 1 << 20;
/// Decode batch sizes a `serve-fresh` request draws from.
const FRESH_BATCHES: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// One `/v1/infer/characterize` request of the `serve-fresh` stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FreshTarget {
    /// Decode batch size.
    pub batch: u64,
    /// Prompt length.
    pub prompt: u64,
    /// Decode context length; unique across the whole stream.
    pub context: u64,
}

impl FreshTarget {
    /// The request target (`/path?query`).
    pub fn target(&self) -> String {
        format!(
            "/v1/infer/characterize?batch={}&prompt={}&context={}",
            self.batch, self.prompt, self.context
        )
    }
}

/// The `serve-fresh` stream: `warm` requests that fill the server's caches
/// during set-up, then `ops` timed requests. No context (and so no target)
/// appears twice in the whole stream, so every timed request misses every
/// cache the server has.
pub fn fresh_stream(seed: u64, warm: usize, ops: usize) -> (Vec<FreshTarget>, Vec<FreshTarget>) {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let span = FRESH_MAX_CONTEXT - FRESH_PROMPT;
    let mut all = Vec::with_capacity(warm + ops);
    while all.len() < warm + ops {
        let context = FRESH_PROMPT + 1 + rng.below(span);
        if !seen.insert(context) {
            continue;
        }
        let batch = FRESH_BATCHES[rng.below(FRESH_BATCHES.len() as u64) as usize];
        all.push(FreshTarget {
            batch,
            prompt: FRESH_PROMPT,
            context,
        });
    }
    let ops_part = all.split_off(warm);
    (all, ops_part)
}

/// The fixed `serve-hot` targets: one per memoized endpoint, small enough
/// that priming them all stays a short set-up.
pub const HOT_TARGETS: [&str; 9] = [
    "/v1/characterize?domain=nmt&params=2000000",
    "/v1/sweep?domain=wordlm&lo=1000000&hi=100000000&points=4",
    "/v1/project?domain=nmt",
    "/v1/subbatch?domain=nmt&params=2000000",
    "/v1/plan?domain=nmt&accels=64&days=30",
    "/v1/plan/search?domain=nmt&accels=64&days=30",
    "/v1/infer/characterize?batch=8&prompt=128&context=2048",
    "/v1/infer/sweep?prompt=128&batch=1,8&context=1024",
    "/v1/infer/plan?tpot_ms=50&ttft_ms=500&tokens_per_s=20000",
];

/// The `serve-hot` op stream: indices into [`HOT_TARGETS`], cycling through
/// every target once per round in a seeded order, so each target gets the
/// same share of the ops whatever the seed.
pub fn hot_stream(seed: u64, ops: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(ops);
    let mut round: Vec<usize> = (0..HOT_TARGETS.len()).collect();
    while out.len() < ops {
        rng.shuffle(&mut round);
        out.extend(round.iter().take(ops - out.len()));
    }
    out
}
