//! Workload generation: session lifecycles over a Zipf-popular catalog.
//!
//! The paper sizes systems for "6500 concurrent MPEG-2 users or 20,000
//! MPEG-1 users" watching movies; this module generates that kind of
//! movie-on-demand request stream for the simulator and benches, at two
//! levels:
//!
//! * [`WorkloadGen`] — the original stateless arrival source: Poisson
//!   arrivals per cycle over a Zipf(θ) catalog. Still the right tool
//!   for open-loop soak tests.
//! * [`SessionEngine`] — the full session lifecycle: Poisson or bursty
//!   ([`ArrivalProcess::bursty`], a two-state MMPP) arrivals, per-stream
//!   VBR quality drawn from a bitrate ladder, viewer abandonment, and
//!   an explicit admission-control policy point
//!   ([`AdmissionPolicy::Reject`] / [`Degrade`](AdmissionPolicy::Degrade)
//!   / [`Queue`](AdmissionPolicy::Queue)). Sessions that end early are
//!   returned to the scheduler via
//!   [`SchemeScheduler::release`], so heavy-traffic runs churn streams
//!   the way a real service does instead of letting every viewer watch
//!   to the credits.
//!
//! Memory is O(active + queued sessions): pending releases live in a
//! [`BinaryHeap`] keyed by due cycle, admission waits stream into
//! [`P2Quantile`] estimators, and nothing is recorded per event.
//!
//! Everything is driven by the caller's RNG (the workspace convention is
//! the vendored SplitMix64-seeded xoshiro behind `rand::rngs::StdRng`,
//! or [`SplitMix64`] directly when a test must be pinned against RNG
//! crate changes), so runs are bit-identical for a given seed.

use mms_layout::ObjectId;
use mms_sched::{SchemeScheduler, StreamId};
use mms_telemetry::P2Quantile;
use rand::{Rng, RngCore};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A Zipf(θ) popularity distribution over `n` items — the standard model
/// for video-on-demand title popularity.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities, `cdf[i] = P(rank ≤ i)`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf distribution with exponent `theta` over `n` ranks.
    /// `theta = 0` is uniform; classic video rental fits use θ ≈ 0.271.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta < 0`.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(theta >= 0.0, "theta must be non-negative");
        let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            // Summation dust can push a prefix one ulp past 1 under
            // extreme skew; the CDF must stay a distribution.
            *w = acc.min(1.0);
        }
        // Guard the tail against floating point dust.
        *weights
            .last_mut()
            .expect("a zipf distribution has at least one weight") = 1.0;
        Zipf { cdf: weights }
    }

    /// Sample a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u)
    }

    /// The cumulative distribution, `cdf[i] = P(rank ≤ i)`.
    #[must_use]
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether empty (never: construction requires `n > 0`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// Rate-splitting threshold: each chunk's rate stays at or below this,
/// so `exp(-chunk)` (≈ 1.3e-14 at 32) is far from the f64 underflow
/// cliff at `rate ≈ 745` that broke the unsplit product method.
const POISSON_CHUNK: f64 = 32.0;

/// Exact Poisson sample at any finite rate, via rate splitting.
///
/// Knuth's product method compares a running product of uniforms
/// against `exp(-rate)`, which underflows to zero for `rate ≳ 745`;
/// the comparison then never fires, and the previous implementation
/// papered over the resulting infinite loop with a silent cap of
/// 10,000 arrivals — quietly biasing heavy-traffic runs. Splitting the
/// rate into equal chunks of at most `POISSON_CHUNK` (32) and summing one
/// exact product-method sample per chunk fixes this without any cap:
/// the sum of independent Poisson draws is Poisson in the summed rate.
/// Cost is O(rate) uniforms, the same as the unsplit method.
///
/// # Panics
/// Panics if `rate` is negative, NaN, or infinite.
pub fn poisson<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> u64 {
    assert!(
        rate.is_finite() && rate >= 0.0,
        "poisson rate must be finite and non-negative"
    );
    if rate == 0.0 {
        return 0;
    }
    let chunks = (rate / POISSON_CHUNK).ceil();
    let per_chunk = rate / chunks;
    let threshold = (-per_chunk).exp();
    let mut total = 0u64;
    for _ in 0..chunks as u64 {
        let mut product: f64 = rng.gen();
        while product > threshold {
            total += 1;
            product *= rng.gen::<f64>();
        }
    }
    total
}

/// How new sessions arrive, cycle by cycle.
///
/// Both variants are sampled per cycle; [`Mmpp`](ArrivalProcess::Mmpp)
/// carries its own modulation state, which is why
/// [`arrivals`](ArrivalProcess::arrivals) takes `&mut self`.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Time-homogeneous Poisson arrivals at `rate` per cycle.
    Poisson {
        /// Mean arrivals per cycle.
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process: a quiet state and a
    /// burst state, each Poisson at its own rate, switching between
    /// them with fixed per-cycle probabilities. The standard minimal
    /// model for bursty (prime-time / flash-crowd) traffic.
    Mmpp {
        /// Arrival rate per cycle in [quiet, burst] state.
        rates: [f64; 2],
        /// Per-cycle probability of leaving [quiet, burst] state.
        switch: [f64; 2],
        /// Current state: 0 = quiet, 1 = burst.
        state: usize,
    },
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate` per cycle.
    ///
    /// # Panics
    /// Panics if `rate` is negative or non-finite.
    #[must_use]
    pub fn poisson(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and non-negative"
        );
        ArrivalProcess::Poisson { rate }
    }

    /// Bursty (two-state MMPP) arrivals, starting in the quiet state:
    /// `quiet_rate` per cycle normally, `burst_rate` during bursts,
    /// entering a burst with per-cycle probability `p_enter` and leaving
    /// with `p_exit`.
    ///
    /// # Panics
    /// Panics if a rate is negative/non-finite or a probability is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn bursty(quiet_rate: f64, burst_rate: f64, p_enter: f64, p_exit: f64) -> Self {
        for r in [quiet_rate, burst_rate] {
            assert!(
                r.is_finite() && r >= 0.0,
                "rate must be finite and non-negative"
            );
        }
        for p in [p_enter, p_exit] {
            assert!(
                (0.0..=1.0).contains(&p),
                "switch probability must be in [0, 1]"
            );
        }
        ArrivalProcess::Mmpp {
            rates: [quiet_rate, burst_rate],
            switch: [p_enter, p_exit],
            state: 0,
        }
    }

    /// Sample this cycle's arrival count (advancing the MMPP state).
    pub fn arrivals<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        match self {
            ArrivalProcess::Poisson { rate } => poisson(*rate, rng),
            ArrivalProcess::Mmpp {
                rates,
                switch,
                state,
            } => {
                if rng.gen_bool(switch[*state]) {
                    *state = 1 - *state;
                }
                poisson(rates[*state], rng)
            }
        }
    }

    /// The long-run mean arrival rate per cycle (the stationary mix of
    /// the two MMPP states; for a never-switching chain, the rate of
    /// the current state).
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Mmpp {
                rates,
                switch,
                state,
            } => {
                let denom = switch[0] + switch[1];
                if denom == 0.0 {
                    rates[*state]
                } else {
                    // Stationary P(quiet) = p_exit / (p_enter + p_exit).
                    let p_quiet = switch[1] / denom;
                    p_quiet * rates[0] + (1.0 - p_quiet) * rates[1]
                }
            }
        }
    }
}

/// Poisson-arrival workload over a catalog of objects.
///
/// The stateless open-loop source: streams are admitted and watched to
/// the end. For session lifecycles (VBR, abandonment, QoS policies) use
/// [`SessionEngine`].
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    objects: Vec<ObjectId>,
    zipf: Zipf,
    /// Mean new-stream arrivals per cycle.
    rate: f64,
}

impl WorkloadGen {
    /// Build a generator: `rate` mean arrivals per cycle, Zipf(θ)
    /// popularity over `objects` (ordered most- to least-popular).
    ///
    /// # Panics
    /// Panics if `objects` is empty or `rate` is negative.
    #[must_use]
    pub fn new(objects: Vec<ObjectId>, theta: f64, rate: f64) -> Self {
        assert!(!objects.is_empty(), "need at least one object");
        assert!(rate >= 0.0, "rate must be non-negative");
        let zipf = Zipf::new(objects.len(), theta);
        WorkloadGen {
            objects,
            zipf,
            rate,
        }
    }

    /// Number of arrivals this cycle (exact Poisson at any rate — see
    /// [`poisson`] for why the naive product method is not used).
    pub fn arrivals<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        poisson(self.rate, rng) as usize
    }

    /// Pick an object by popularity.
    pub fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> ObjectId {
        self.objects[self.zipf.sample(rng)]
    }

    /// The catalog, most popular first.
    #[must_use]
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }
}

/// What to do with an arrival that finds the server at capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Turn the viewer away (blocked-calls-cleared). The classical
    /// admission model; blocked arrivals count toward
    /// [`SessionStats::rejected`].
    Reject,
    /// Shed load before the cliff: once active streams reach
    /// `threshold` × capacity, new sessions are admitted at `quality`
    /// (a duration multiplier < 1 — the viewer gets the lower rung of
    /// the bitrate ladder and the slot frees sooner). Arrivals that
    /// find the server completely full are still rejected.
    Degrade {
        /// Utilization fraction (active / capacity) above which new
        /// sessions are degraded.
        threshold: f64,
        /// Duration multiplier applied to degraded sessions (`0 < q ≤ 1`).
        quality: f64,
    },
    /// Hold blocked arrivals in a FIFO queue; each is admitted when a
    /// slot frees, or gives up (balks) after waiting `max_wait` cycles.
    /// Queue depth is bounded by `arrival rate × max_wait`.
    Queue {
        /// Cycles a viewer will wait before abandoning the queue.
        max_wait: u64,
    },
}

/// Counters and streaming percentiles for one engine run.
///
/// Waits are recorded for every admission (0 for immediate ones), so
/// under [`AdmissionPolicy::Queue`] the percentiles describe the
/// admission latency a viewer actually experienced.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Total arrivals offered to the server.
    pub offered: u64,
    /// Sessions admitted (immediately or from the queue).
    pub admitted: u64,
    /// Arrivals turned away at capacity.
    pub rejected: u64,
    /// Admitted sessions that were quality-degraded under load.
    pub degraded: u64,
    /// Arrivals that entered the wait queue.
    pub queued: u64,
    /// Queued viewers that gave up after `max_wait` cycles.
    pub balked: u64,
    /// Sessions the engine ended early (abandonment, short VBR holds,
    /// degraded quality) via [`SchemeScheduler::release`].
    pub released_early: u64,
    /// Median admission wait, in cycles.
    pub wait_p50: P2Quantile,
    /// 95th-percentile admission wait, in cycles.
    pub wait_p95: P2Quantile,
    /// 99th-percentile admission wait, in cycles.
    pub wait_p99: P2Quantile,
}

impl Default for SessionStats {
    fn default() -> Self {
        SessionStats {
            offered: 0,
            admitted: 0,
            rejected: 0,
            degraded: 0,
            queued: 0,
            balked: 0,
            released_early: 0,
            wait_p50: P2Quantile::new(0.5),
            wait_p95: P2Quantile::new(0.95),
            wait_p99: P2Quantile::new(0.99),
        }
    }
}

impl SessionStats {
    fn record_wait(&mut self, wait_cycles: u64) {
        let w = wait_cycles as f64;
        self.wait_p50.observe(w);
        self.wait_p95.observe(w);
        self.wait_p99.observe(w);
        mms_telemetry::quantile!("workload.wait_cycles", w);
    }

    /// Fraction of offered sessions denied service (rejected or balked).
    #[must_use]
    pub fn blocking_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.rejected + self.balked) as f64 / self.offered as f64
    }
}

/// An arrival waiting in the admission queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrived: u64,
    object: ObjectId,
    hold: u64,
}

/// The session-lifecycle engine: arrivals → admission policy → timed
/// release.
///
/// Construction takes the catalog as `(object, nominal_cycles)` pairs,
/// most popular first, where `nominal_cycles` is how long a session
/// holds its stream slot when the viewer watches the whole object at
/// nominal quality (for Streaming RAID and Improved Bandwidth that is
/// the object's group count; staggered schemes multiply by the group
/// period — the caller knows its scheme's cycle geometry).
///
/// **VBR ladder.** Each session draws a multiplier from the ladder
/// (uniformly); its slot-hold time scales by it. The layouts pin `k'`
/// per scheme, so per-stream bitrate variation is modeled as
/// service-time variation — the quantity admission control actually
/// competes over. Multipliers > 1 that push past the object's end are
/// harmless: the stream finishes naturally and the scheduled release
/// finds it already gone.
///
/// **Abandonment.** With probability `abandon_prob` a viewer leaves
/// after a uniform fraction of their intended session.
///
/// Drive it with [`Simulator::run_sessions`] or call
/// [`tick`](SessionEngine::tick) manually before each simulator step.
///
/// [`Simulator::run_sessions`]: crate::Simulator::run_sessions
#[derive(Debug)]
pub struct SessionEngine {
    /// `(object, nominal session cycles)`, most popular first.
    objects: Vec<(ObjectId, u64)>,
    zipf: Zipf,
    arrivals: ArrivalProcess,
    vbr: Vec<f64>,
    abandon_prob: f64,
    policy: AdmissionPolicy,
    /// FIFO of arrivals waiting for a slot ([`AdmissionPolicy::Queue`]).
    queue: VecDeque<Pending>,
    /// Scheduled early releases, keyed by due cycle (min-heap).
    releases: BinaryHeap<Reverse<(u64, StreamId)>>,
    stats: SessionStats,
    /// Arrival batch pre-sampled for a future cycle by
    /// [`next_event_before`](Self::next_event_before); `tick` consumes
    /// it when that cycle comes up, instead of re-drawing.
    pending_arrival: Option<(u64, u64)>,
    /// Cycles strictly below this have had their arrival count sampled
    /// (all zero except the one cached in `pending_arrival`).
    sampled_through: u64,
}

impl SessionEngine {
    /// Build an engine over `objects` (`(id, nominal_cycles)`, most
    /// popular first) with Zipf(θ) popularity.
    ///
    /// # Panics
    /// Panics if `objects` is empty, θ is negative, an object's nominal
    /// length is zero, or a `Degrade`/`Queue` policy parameter is out
    /// of range (`0 < quality ≤ 1`, `0 ≤ threshold ≤ 1`).
    #[must_use]
    pub fn new(
        objects: Vec<(ObjectId, u64)>,
        theta: f64,
        arrivals: ArrivalProcess,
        policy: AdmissionPolicy,
    ) -> Self {
        assert!(!objects.is_empty(), "need at least one object");
        assert!(
            objects.iter().all(|&(_, cycles)| cycles > 0),
            "every object needs a positive nominal session length"
        );
        if let AdmissionPolicy::Degrade { threshold, quality } = policy {
            assert!(
                (0.0..=1.0).contains(&threshold),
                "degrade threshold must be in [0, 1]"
            );
            assert!(
                quality > 0.0 && quality <= 1.0,
                "degrade quality must be in (0, 1]"
            );
        }
        let zipf = Zipf::new(objects.len(), theta);
        SessionEngine {
            objects,
            zipf,
            arrivals,
            vbr: vec![1.0],
            abandon_prob: 0.0,
            policy,
            queue: VecDeque::new(),
            releases: BinaryHeap::new(),
            stats: SessionStats::default(),
            pending_arrival: None,
            sampled_through: 0,
        }
    }

    /// Use a VBR bitrate ladder: each session uniformly draws one
    /// multiplier, scaling how long it holds its slot.
    ///
    /// # Panics
    /// Panics if the ladder is empty or contains a non-positive rung.
    #[must_use]
    pub fn with_vbr(mut self, ladder: Vec<f64>) -> Self {
        assert!(!ladder.is_empty(), "VBR ladder needs at least one rung");
        assert!(
            ladder.iter().all(|&m| m.is_finite() && m > 0.0),
            "VBR multipliers must be positive and finite"
        );
        self.vbr = ladder;
        self
    }

    /// Let viewers abandon: with probability `prob` a session ends after
    /// a uniform fraction of its intended length.
    ///
    /// # Panics
    /// Panics if `prob` is outside `[0, 1]`.
    #[must_use]
    pub fn with_abandonment(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.abandon_prob = prob;
        self
    }

    /// Cumulative counters and percentiles.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Viewers currently waiting for admission.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Sample one session's slot-hold time for an object of `nominal`
    /// cycles: VBR rung × (abandonment fraction), at least one cycle.
    fn sample_hold<R: Rng + ?Sized>(&self, nominal: u64, rng: &mut R) -> u64 {
        let rung = self.vbr[(rng.gen::<u64>() % self.vbr.len() as u64) as usize];
        let watched = if self.abandon_prob > 0.0 && rng.gen_bool(self.abandon_prob) {
            rng.gen::<f64>()
        } else {
            1.0
        };
        ((nominal as f64 * rung * watched).ceil() as u64).max(1)
    }

    /// Try to admit one session, applying the degrade policy and
    /// scheduling its release on success. Returns whether it got in.
    fn admit_session<S: SchemeScheduler>(
        &mut self,
        sched: &mut S,
        cycle: u64,
        object: ObjectId,
        hold: u64,
        wait: u64,
    ) -> bool {
        let mut hold = hold;
        let mut degrade = false;
        if let AdmissionPolicy::Degrade { threshold, quality } = self.policy {
            let capacity = sched.stream_capacity();
            if capacity > 0 && sched.active_streams() as f64 >= threshold * capacity as f64 {
                hold = ((hold as f64 * quality).ceil() as u64).max(1);
                degrade = true;
            }
        }
        // lint:allow(transitive-alloc): admission allocates the stream's state once per session, not per cycle
        match sched.admit(object, cycle) {
            Ok(id) => {
                self.stats.admitted += 1;
                if degrade {
                    self.stats.degraded += 1;
                }
                self.stats.record_wait(wait);
                self.releases.push(Reverse((cycle + hold, id)));
                true
            }
            Err(_) => false,
        }
    }

    /// Advance one cycle: fire due releases, drain the wait queue into
    /// freed slots, then offer this cycle's arrivals. Call immediately
    /// before the simulator plans `cycle`.
    pub fn tick<S: SchemeScheduler, R: Rng + ?Sized>(
        &mut self,
        cycle: u64,
        sched: &mut S,
        rng: &mut R,
    ) {
        // 1. End sessions whose holds expired. `release` returns false
        //    when the stream already finished naturally (VBR rungs > 1
        //    or exact-length holds), which is not an early end.
        while let Some(&Reverse((due, id))) = self.releases.peek() {
            if due > cycle {
                break;
            }
            self.releases.pop();
            if sched.release(id) {
                self.stats.released_early += 1;
            }
        }

        // 2. FIFO-admit waiting viewers into whatever freed up,
        //    expiring those who waited past their patience.
        if let AdmissionPolicy::Queue { max_wait } = self.policy {
            while let Some(&front) = self.queue.front() {
                if cycle.saturating_sub(front.arrived) > max_wait {
                    self.queue.pop_front();
                    self.stats.balked += 1;
                    continue;
                }
                if self.admit_session(
                    sched,
                    cycle,
                    front.object,
                    front.hold,
                    cycle - front.arrived,
                ) {
                    self.queue.pop_front();
                } else {
                    break;
                }
            }
        }

        // 3. This cycle's arrivals. Session parameters are sampled
        //    before the admission attempt so the random stream is
        //    identical whatever the outcome.
        let arrivals = self.draw_arrivals(cycle, rng);
        for _ in 0..arrivals {
            self.stats.offered += 1;
            let (object, nominal) = self.objects[self.zipf.sample(rng)];
            let hold = self.sample_hold(nominal, rng);
            // A non-empty queue means earlier viewers are still
            // waiting; newcomers join behind them, never jump ahead.
            let must_wait =
                matches!(self.policy, AdmissionPolicy::Queue { .. }) && !self.queue.is_empty();
            if !must_wait && self.admit_session(sched, cycle, object, hold, 0) {
                continue;
            }
            match self.policy {
                AdmissionPolicy::Queue { .. } => {
                    self.queue.push_back(Pending {
                        arrived: cycle,
                        object,
                        hold,
                    });
                    self.stats.queued += 1;
                }
                AdmissionPolicy::Reject | AdmissionPolicy::Degrade { .. } => {
                    self.stats.rejected += 1;
                }
            }
        }
    }

    /// This cycle's arrival count: the pre-sampled batch if
    /// [`next_event_before`](Self::next_event_before) already drew it,
    /// a fresh draw otherwise. Cycles are sampled exactly once, in
    /// order, so the RNG stream is identical whether or not lookahead
    /// ran.
    fn draw_arrivals<R: Rng + ?Sized>(&mut self, cycle: u64, rng: &mut R) -> u64 {
        if cycle < self.sampled_through {
            return match self.pending_arrival {
                Some((due, n)) if due == cycle => {
                    self.pending_arrival = None;
                    n
                }
                _ => 0,
            };
        }
        self.sampled_through = cycle + 1;
        self.arrivals.arrivals(rng)
    }

    /// The first cycle in `[from, until)` at which [`tick`](Self::tick)
    /// would do anything — fire a release, age the wait queue, or admit
    /// arrivals — or `until` if the whole range is event-free.
    ///
    /// Arrival counts for the scanned cycles are sampled here, in cycle
    /// order (cached for `tick` to consume), so calling this does not
    /// perturb the engine's random stream relative to per-cycle
    /// ticking. The simulator's event-horizon mode uses the result to
    /// bound how far it may fast-forward without skipping a session
    /// event.
    pub fn next_event_before<R: Rng + ?Sized>(
        &mut self,
        from: u64,
        until: u64,
        rng: &mut R,
    ) -> u64 {
        if until <= from {
            return until;
        }
        // Waiting viewers age every cycle (balk timing), so any queue
        // content pins the next event to `from`.
        if !self.queue.is_empty() {
            return from;
        }
        let mut bound = until;
        if let Some(&Reverse((due, _))) = self.releases.peek() {
            if due <= from {
                return from;
            }
            bound = bound.min(due);
        }
        if let Some((due, _)) = self.pending_arrival {
            return due.clamp(from, bound);
        }
        let mut cycle = self.sampled_through.max(from);
        while cycle < bound {
            self.sampled_through = cycle + 1;
            let n = self.arrivals.arrivals(rng);
            if n > 0 {
                self.pending_arrival = Some((cycle, n));
                return cycle;
            }
            cycle += 1;
        }
        bound
    }
}

/// The repo's reference RNG: bare SplitMix64 (Steele, Lea & Flood 2014),
/// the same mixer that seeds the vendored xoshiro behind
/// `rand::rngs::StdRng` and splits seeds in `mms-exec`.
///
/// Tests that must stay byte-stable across RNG crate upgrades use this
/// directly — its entire definition is the one mixing function
/// [`rand::splitmix64_mix`], so a rand version bump cannot silently
/// change their sample streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// SplitMix64's golden-ratio increment.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A generator seeded at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        rand::splitmix64_mix(self.state)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Workload tests run on the repo's own SplitMix64 rather than
    // `rand::rngs::StdRng` so their expectations are pinned against
    // vendored-rand version bumps (StdRng is *currently* a
    // SplitMix64-seeded xoshiro, but that is an implementation detail
    // of the vendored crate, not a contract).
    fn rng(seed: u64) -> SplitMix64 {
        SplitMix64::new(seed)
    }

    #[test]
    fn splitmix_matches_the_reference_mixer() {
        // First output = mix(seed + gamma): pin the exact stream.
        let mut r = rng(0);
        let expect = rand::splitmix64_mix(0x9E37_79B9_7F4A_7C15);
        assert_eq!(r.next_u64(), expect);
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = rng(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "{counts:?}");
        }
    }

    #[test]
    fn zipf_skews_to_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = rng(2);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With θ=1 over 100 items, the top 10 carry ~56% of mass.
        let frac = head as f64 / n as f64;
        assert!((0.5..0.63).contains(&frac), "{frac}");
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(7, 0.5);
        let mut rng = rng(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn poisson_mean_is_rate() {
        let gen = WorkloadGen::new(vec![ObjectId(0)], 0.0, 2.5);
        let mut rng = rng(4);
        let n = 20_000;
        let total: usize = (0..n).map(|_| gen.arrivals(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "{mean}");
    }

    #[test]
    fn poisson_heavy_traffic_mean_is_exact() {
        // Regression for the product-method underflow: at rate 1000 the
        // old implementation's exp(-1000) rounded to a subnormal and
        // every draw marched to the silent 10_000 cap. Rate splitting
        // must put the sample mean within ±2% of the rate.
        let mut rng = rng(5);
        let n = 2_000u64;
        let total: u64 = (0..n).map(|_| poisson(1000.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 1000.0).abs() < 20.0,
            "mean {mean} off by more than 2%"
        );
        // And the variance should also be ≈ rate, not collapsed at a cap.
        let mut rng = SplitMix64::new(5);
        let var: f64 = (0..n)
            .map(|_| {
                let x = poisson(1000.0, &mut rng) as f64;
                (x - mean) * (x - mean)
            })
            .sum::<f64>()
            / n as f64;
        assert!((500.0..1500.0).contains(&var), "variance {var}");
    }

    #[test]
    fn poisson_extreme_rate_does_not_hang_or_cap() {
        // exp(-3000) is exactly 0.0 in f64; unsplit Knuth would loop to
        // its cap. Split sampling stays exact.
        let mut rng = rng(6);
        let x = poisson(3000.0, &mut rng);
        assert!((2700..3300).contains(&x), "{x}");
    }

    #[test]
    fn zero_rate_never_arrives() {
        let gen = WorkloadGen::new(vec![ObjectId(0)], 0.0, 0.0);
        let mut rng = rng(7);
        for _ in 0..100 {
            assert_eq!(gen.arrivals(&mut rng), 0);
        }
    }

    #[test]
    fn pick_respects_catalog() {
        let objs = vec![ObjectId(7), ObjectId(8), ObjectId(9)];
        let gen = WorkloadGen::new(objs.clone(), 0.271, 1.0);
        let mut rng = rng(8);
        for _ in 0..100 {
            assert!(objs.contains(&gen.pick(&mut rng)));
        }
    }

    #[test]
    fn mmpp_mixes_quiet_and_burst_rates() {
        // Quiet 1/cycle, burst 50/cycle, symmetric switching: the
        // long-run mean is the stationary mix (25.5), far from either
        // pure rate.
        let mut p = ArrivalProcess::bursty(1.0, 50.0, 0.05, 0.05);
        assert!((p.mean_rate() - 25.5).abs() < 1e-9);
        let mut rng = rng(9);
        let n = 40_000u64;
        let total: u64 = (0..n).map(|_| p.arrivals(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 25.5).abs() < 1.5,
            "mean {mean} not near stationary 25.5"
        );
    }

    #[test]
    fn mmpp_without_switching_stays_quiet() {
        let mut p = ArrivalProcess::bursty(2.0, 500.0, 0.0, 0.0);
        assert!((p.mean_rate() - 2.0).abs() < 1e-12);
        let mut rng = rng(10);
        let total: u64 = (0..5_000).map(|_| p.arrivals(&mut rng)).sum();
        let mean = total as f64 / 5_000.0;
        assert!((mean - 2.0).abs() < 0.1, "{mean}");
    }

    #[test]
    fn session_hold_respects_vbr_and_abandonment_bounds() {
        let engine = SessionEngine::new(
            vec![(ObjectId(0), 100)],
            0.0,
            ArrivalProcess::poisson(1.0),
            AdmissionPolicy::Reject,
        )
        .with_vbr(vec![0.5, 1.0])
        .with_abandonment(0.5);
        let mut rng = rng(11);
        for _ in 0..5_000 {
            let h = engine.sample_hold(100, &mut rng);
            // Shortest: full abandonment at the 0.5 rung (≥ 1 cycle);
            // longest: full watch at the 1.0 rung.
            assert!((1..=100).contains(&h), "{h}");
        }
    }

    #[test]
    fn sampled_holds_average_below_nominal_under_abandonment() {
        let engine = SessionEngine::new(
            vec![(ObjectId(0), 200)],
            0.0,
            ArrivalProcess::poisson(1.0),
            AdmissionPolicy::Reject,
        )
        .with_abandonment(1.0);
        let mut rng = rng(12);
        let n = 10_000u64;
        let total: u64 = (0..n).map(|_| engine.sample_hold(200, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        // Every viewer abandons at a uniform fraction: mean ≈ 100.
        assert!((90.0..110.0).contains(&mean), "{mean}");
    }
}
