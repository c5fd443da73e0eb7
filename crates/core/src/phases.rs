//! Phase names matching the paper's Figure 6/7 legends and Table 3 rows,
//! so the timing output lines up with the published breakdown.

pub const SEND_SNE: &str = "Send_SNe";
pub const RECEIVE_SNE: &str = "Receive_SNe";
pub(crate) const INTEGRATION: &str = "Integration";
pub const EXCHANGE_PARTICLE: &str = "Exchange_Particle";
pub const PREPROCESS_FEEDBACK: &str = "Preprocess_of_Feedback";
pub const CALC_KERNEL_DENSITY_1: &str = "1st Calc_Kernel_Size_and_Density";
pub const MAKE_LOCAL_TREE_1: &str = "1st Make_Local_Tree";
pub const EXCHANGE_LET_1: &str = "1st Exchange_LET";
pub const CALC_FORCE_1: &str = "1st Calc_Force";
pub(crate) const FINAL_KICK: &str = "Final_kick (brdg asso)";
pub const IDENTIFY_SNE: &str = "Identify_SNe";
pub(crate) const FEEDBACK_COOLING: &str = "Feedback_and_Cooling (direct)";
pub(crate) const STAR_FORMATION: &str = "Star Formation";
pub const CALC_KERNEL_SIZE_2: &str = "2nd Calc_Kernel_Size";
pub const MAKE_TREE_2: &str = "2nd Make_Tree";
pub const EXCHANGE_LET_2: &str = "2nd Exchange_LET";
pub const CALC_FORCE_2: &str = "2nd Calc_Force";

/// All phases in the order the paper's figures list them.
pub const ALL: [&str; 17] = [
    SEND_SNE,
    RECEIVE_SNE,
    INTEGRATION,
    EXCHANGE_PARTICLE,
    PREPROCESS_FEEDBACK,
    CALC_KERNEL_DENSITY_1,
    MAKE_LOCAL_TREE_1,
    EXCHANGE_LET_1,
    CALC_FORCE_1,
    FINAL_KICK,
    IDENTIFY_SNE,
    FEEDBACK_COOLING,
    STAR_FORMATION,
    CALC_KERNEL_SIZE_2,
    MAKE_TREE_2,
    EXCHANGE_LET_2,
    CALC_FORCE_2,
];

#[cfg(test)]
mod tests {
    #[test]
    fn seventeen_distinct_phases() {
        let mut names = super::ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
    }
}
