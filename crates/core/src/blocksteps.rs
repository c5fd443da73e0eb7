//! Level-binning tests of [`crate::scheduler::ActiveScheduler`]. The
//! schedule type that used to live here was folded into `scheduler.rs`;
//! the tests stay at this path so the suite keeps reporting them under the
//! names (`blocksteps::tests::*`) the test floor tracks.
mod tests {
    use crate::scheduler::ActiveScheduler;

    fn assigned(dt_max: f64, dt_wanted: &[f64], max_level: u32) -> ActiveScheduler {
        let mut s = ActiveScheduler::default();
        s.assign(dt_max, dt_wanted, max_level);
        s
    }

    fn active_at(s: &ActiveScheduler, k: u64) -> Vec<u32> {
        let mut out = Vec::new();
        s.active_at_boundary_into(k, &mut out);
        out
    }

    #[test]
    fn uniform_timesteps_use_one_level() {
        let s = assigned(1.0, &[1.0; 100], 20);
        assert_eq!(s.max_level(), 0);
        assert_eq!(s.substeps_per_base_step(), 1);
        assert_eq!(s.updates_per_base_step(), 100);
        assert_eq!(active_at(&s, 0).len(), 100);
    }

    #[test]
    fn levels_quantize_downward() {
        let s = assigned(1.0, &[1.0, 0.6, 0.5, 0.3, 0.11], 20);
        // 0.6 -> level 1 (dt 0.5); 0.5 -> 1; 0.3 -> 2 (0.25); 0.11 -> 4 (0.0625).
        assert_eq!(s.levels, vec![0, 1, 1, 2, 4]);
        // Quantized dt never exceeds the wanted dt.
        for (&l, &want) in s.levels.iter().zip(&[1.0, 0.6, 0.5, 0.3, 0.11]) {
            assert!(s.dt_max / (1u64 << l) as f64 <= want + 1e-12);
        }
    }

    #[test]
    fn activity_pattern_is_binary_subdivision() {
        let s = assigned(1.0, &[1.0, 0.5, 0.25], 20);
        assert_eq!(s.max_level(), 2);
        assert_eq!(s.substeps_per_base_step(), 4);
        // Substep 0: everyone. 1: only level 2. 2: levels 1 and 2. 3: level 2.
        assert_eq!(active_at(&s, 0), vec![0, 1, 2]);
        assert_eq!(active_at(&s, 1), vec![2]);
        assert_eq!(active_at(&s, 2), vec![1, 2]);
        assert_eq!(active_at(&s, 3), vec![2]);
        // Each particle's total updates match its level.
        let mut counts = [0u32; 3];
        for k in 0..4 {
            for i in active_at(&s, k) {
                counts[i as usize] += 1;
            }
        }
        assert_eq!(counts, [1, 2, 4]);
        assert_eq!(s.updates_per_base_step(), 7);
    }

    #[test]
    fn one_hot_particle_destroys_efficiency() {
        // The paper's argument quantified: one SN-heated particle forcing a
        // 1024x smaller step makes the fixed per-substep costs dominate.
        let n = 10_000;
        let mut dts = vec![1.0; n];
        let uniform = assigned(1.0, &dts, 20);
        dts[0] = 1.0 / 1024.0;
        let spiked = assigned(1.0, &dts, 20);
        let overhead = 0.01; // 1% of a full update per substep
        let e_uniform = uniform.efficiency(overhead);
        let e_spiked = spiked.efficiency(overhead);
        assert!(e_uniform > 0.95, "uniform efficiency {e_uniform}");
        assert!(
            e_spiked < 0.25 * e_uniform,
            "spiked efficiency {e_spiked} should collapse vs {e_uniform}"
        );
    }

    #[test]
    fn max_level_cap_is_respected() {
        let s = assigned(1.0, &[1e-9], 10);
        assert_eq!(s.max_level(), 10);
        assert!((s.dt_fine() - 1.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_with_zero_overhead_is_one() {
        let s = assigned(1.0, &[1.0, 0.25, 0.5], 20);
        assert!((s.efficiency(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timestep_rejected() {
        let _ = assigned(1.0, &[0.0], 4);
    }

    #[test]
    fn raise_depth_widens_the_walk_without_moving_levels() {
        let mut s = assigned(1.0, &[1.0, 0.5], 20);
        assert_eq!(s.max_level(), 1);
        s.raise_depth(3);
        assert_eq!(s.max_level(), 3);
        assert_eq!(s.substeps_per_base_step(), 8);
        // Particle levels (and their quantized dts) are untouched.
        assert_eq!(s.levels, vec![0, 1]);
        assert_eq!(s.dt_of(1), 0.5);
        // Level-1 particles now update every 4 of the 8 fine substeps.
        assert_eq!(active_at(&s, 4), vec![1]);
        assert_eq!(active_at(&s, 1), Vec::<u32>::new());
        assert_eq!(active_at(&s, 0), vec![0, 1]);
        // Raising below the occupied depth is a no-op.
        s.raise_depth(2);
        assert_eq!(s.max_level(), 3);
        // Reassignment re-derives the depth from the levels again.
        s.assign(1.0, &[1.0, 0.5], 20);
        assert_eq!(s.max_level(), 1);
    }

    #[test]
    fn reassign_reuses_storage_and_matches_assign() {
        let mut s = assigned(1.0, &[1.0, 0.3, 0.1, 0.6], 20);
        let cap = s.levels.capacity();
        s.assign(2.0, &[2.0, 0.5, 0.9], 20);
        let fresh = assigned(2.0, &[2.0, 0.5, 0.9], 20);
        assert_eq!(s.levels, fresh.levels);
        assert_eq!(s.max_level(), fresh.max_level());
        assert_eq!(s.levels.capacity(), cap, "reassign must not reallocate");
    }

    #[test]
    fn active_at_into_matches_active_at_and_covers_end_boundary() {
        let s = assigned(1.0, &[1.0, 0.5, 0.25], 20);
        // One caller-owned buffer serves every boundary (cleared, capacity
        // kept) and yields the binary-subdivision pattern.
        let mut buf = Vec::new();
        let expected: [&[u32]; 4] = [&[0, 1, 2], &[2], &[1, 2], &[2]];
        for k in 0..s.substeps_per_base_step() {
            s.active_at_boundary_into(k, &mut buf);
            assert_eq!(buf, expected[k as usize]);
        }
        // End boundary: everyone closes a step.
        s.active_at_boundary_into(s.substeps_per_base_step(), &mut buf);
        assert_eq!(buf, vec![0, 1, 2]);
        // Per-particle quantized dt follows the level.
        assert_eq!(s.dt_of(0), 1.0);
        assert_eq!(s.dt_of(1), 0.5);
        assert_eq!(s.dt_of(2), 0.25);
    }
}
