//! The replay keeps each state once because of how the engine feeds a DQN:
//! a non-terminal transition's next state is, bit for bit, the state of
//! the transition after it. A training pass of the headline DQN on the
//! benchmark scenario (what the `train_drl` benchmark workload runs) must
//! therefore copy no next state into the replay's side ring; a change to
//! the engine's feedback that breaks the assumption fails here rather than
//! silently doubling the replay's memory.

use bench::{bench_scenario, drl_default};
use drl_vnf_edge::prelude::*;

#[test]
fn a_headline_training_pass_spills_no_next_state() {
    let mut scenario = bench_scenario(6.0);
    scenario.seed = 2026;
    scenario.horizon_slots = 120;
    let trained = train_drl(&scenario, RewardConfig::default(), drl_default(), 1);
    let store = trained.policy.agent().replay_store();
    assert!(
        store.total_pushed() > 1_000,
        "pushed {}",
        store.total_pushed()
    );
    assert_eq!(store.spilled(), 0, "next states spilled");
}
