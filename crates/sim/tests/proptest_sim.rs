//! Property tests for the simulation substrate: failure schedules,
//! workload distributions, the rebuild manager, and the block oracle.

use mms_disk::{DiskId, ReliabilityParams, Time};
use mms_layout::{BlockAddr, ObjectId};
use mms_sim::{
    ArrivalProcess, BlockOracle, FailureEvent, FailureSchedule, Rebuild, RebuildManager,
    RebuildSource, Zipf,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Stochastic schedules drain in cycle order, alternate fail/repair
    /// per disk, and never emit events past the horizon.
    #[test]
    fn stochastic_schedules_are_well_formed(
        seed in any::<u64>(),
        d in 1usize..20,
        horizon in 10u64..5_000,
        accel in 1.0e4f64..1.0e7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = FailureSchedule::stochastic(
            &mut rng,
            d,
            ReliabilityParams::paper(),
            Time::from_secs(1.0),
            horizon,
            accel,
        );
        let mut last_cycle = 0u64;
        let mut down: std::collections::HashSet<DiskId> = std::collections::HashSet::new();
        for cycle in 0..horizon {
            for e in s.due(cycle) {
                prop_assert!(e.cycle() >= last_cycle);
                prop_assert!(e.cycle() < horizon);
                last_cycle = e.cycle();
                match e {
                    FailureEvent::Fail { disk, .. } => {
                        prop_assert!(down.insert(disk), "double failure of {disk}");
                    }
                    FailureEvent::Repair { disk, .. } => {
                        prop_assert!(down.remove(&disk), "repair of healthy {disk}");
                    }
                }
            }
        }
        prop_assert_eq!(s.remaining(), 0);
    }

    /// Zipf CDFs are proper distributions and θ orders head mass.
    #[test]
    fn zipf_head_mass_increases_with_theta(
        n in 2usize..200,
        theta_lo in 0.0f64..0.8,
        bump in 0.2f64..1.5,
        seed in any::<u64>(),
    ) {
        let lo = Zipf::new(n, theta_lo);
        let hi = Zipf::new(n, theta_lo + bump);
        let trials = 4000;
        let head = n.div_ceil(4).max(1);
        let count = |z: &Zipf, s: u64| {
            let mut rng = StdRng::seed_from_u64(s);
            (0..trials).filter(|_| z.sample(&mut rng) < head).count()
        };
        let c_lo = count(&lo, seed);
        let c_hi = count(&hi, seed.wrapping_add(1));
        // Higher theta concentrates mass on low ranks; allow sampling
        // noise of a few standard deviations.
        prop_assert!(c_hi + 200 >= c_lo, "lo {c_lo} hi {c_hi}");
    }

    /// The Zipf CDF stays a proper distribution under extreme skew:
    /// monotone non-decreasing, every prefix in (0, 1], and terminating
    /// at exactly 1 — so inversion sampling can never index out of
    /// range, even at θ far beyond the paper's 0.271 fit.
    #[test]
    fn zipf_cdf_is_monotone_and_in_range_under_extreme_theta(
        n in 1usize..500,
        theta in 0.0f64..12.0,
        seed in any::<u64>(),
    ) {
        let z = Zipf::new(n, theta);
        let cdf = z.cdf();
        prop_assert_eq!(cdf.len(), n);
        let mut prev = 0.0f64;
        for (i, &c) in cdf.iter().enumerate() {
            prop_assert!(c.is_finite(), "cdf[{i}] not finite at theta {theta}");
            prop_assert!(c > 0.0 && c <= 1.0, "cdf[{i}] = {c} out of (0, 1]");
            prop_assert!(c >= prev, "cdf[{i}] = {c} < cdf[{}] = {prev}", i - 1);
            prev = c;
        }
        prop_assert!((cdf[n - 1] - 1.0).abs() < 1e-9, "cdf ends at {prev}");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Poisson arrivals have the Poisson mean and never panic for any
    /// rate in a sane range.
    #[test]
    fn workload_arrival_mean(rate in 0.0f64..6.0, seed in any::<u64>()) {
        let mut process = ArrivalProcess::poisson(rate);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3000u32;
        let total: u64 = (0..n).map(|_| process.arrivals(&mut rng)).sum();
        let mean = total as f64 / f64::from(n);
        // SE = sqrt(rate / n); allow 6 sigma + epsilon.
        let tol = 6.0 * (rate / f64::from(n)).sqrt() + 0.02;
        prop_assert!((mean - rate).abs() < tol, "mean {mean} vs rate {rate}");
    }

    /// Rebuild progress is conserved: total spent reads equal
    /// sources × rebuilt tracks, and completion is exact.
    #[test]
    fn rebuild_conserves_work(
        total in 1u64..500,
        sources in 1usize..8,
        idle in 1usize..10,
    ) {
        let src: Vec<DiskId> = (0..sources as u32).map(DiskId).collect();
        let mut mgr = RebuildManager::new();
        mgr.start(Rebuild {
            disk: DiskId(99),
            total_tracks: total,
            done_tracks: 0,
            source: RebuildSource::Parity { sources: src },
        });
        let mut spent = 0usize;
        let mut cycles = 0u64;
        loop {
            let finished = mgr.advance(|_| idle, |_, n| spent += n);
            cycles += 1;
            if !finished.is_empty() {
                break;
            }
            prop_assert!(cycles < total + 2, "stuck");
        }
        prop_assert_eq!(spent as u64, total * sources as u64);
        prop_assert_eq!(cycles, total.div_ceil(idle as u64));
    }

    /// The oracle's group accounting, parity coding, and degraded-mode
    /// reconstruction agree when the track count is **not** a multiple of
    /// C−1: `tracks = full·(C−1) + rem` with `0 < rem < C−1` always ends
    /// in a partial final group (`rem = 1` is the 1-block group), and on
    /// that group the materializing path (`parity_block`,
    /// `reconstruct_and_check`), the streaming path (`parity_into`,
    /// `write_data_block_into`, `verify_delivery`), and the memoized
    /// fingerprints must all describe the same bytes.
    #[test]
    fn oracle_paths_agree_on_partial_final_groups(
        bpg in 2u32..8,
        full_groups in 0u64..20,
        rem in 1u64..7,
        track_bytes in 16usize..96,
    ) {
        let rem = rem.min(u64::from(bpg) - 1);
        let tracks = full_groups * u64::from(bpg) + rem;
        let object = ObjectId(3);
        let mut oracle =
            BlockOracle::new(BTreeMap::from([(object, tracks)]), bpg, track_bytes);

        let last = tracks.div_ceil(u64::from(bpg)) - 1;
        prop_assert_eq!(oracle.blocks_in_group(object, last), rem as u32);
        prop_assert_eq!(oracle.blocks_in_group(object, last + 1), 0);

        for group in 0..=last {
            let blocks = oracle.blocks_in_group(object, group);
            let expected = if group == last { rem as u32 } else { bpg };
            prop_assert_eq!(blocks, expected, "group {} of {}", group, tracks);

            // Materializing and streaming parity agree byte for byte,
            // and the memoized fingerprint matches both.
            let parity = oracle.parity_block(object, group);
            let mut streamed = mms_parity::Block::zeroed(track_bytes);
            oracle.parity_into(object, group, &mut streamed);
            prop_assert_eq!(&streamed, &parity);
            prop_assert_eq!(oracle.parity_fingerprint(object, group), parity.fingerprint());

            for ix in 0..blocks {
                let stored = oracle.data_block(object, group, ix);
                let mut written = vec![0u8; track_bytes];
                oracle.write_data_block_into(object, group, ix, &mut written);
                prop_assert_eq!(written.as_slice(), stored.as_bytes());

                let rebuilt = oracle.reconstruct_and_check(object, group, ix);
                prop_assert_eq!(&rebuilt, &stored);

                oracle.verify_delivery(BlockAddr::data(object, group, ix), true);
                oracle.verify_delivery(BlockAddr::data(object, group, ix), false);
            }
            oracle.verify_delivery(BlockAddr::parity(object, group), false);
        }
    }
}
