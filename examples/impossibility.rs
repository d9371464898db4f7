//! The constructive content of Theorem 1: why *localized* distributed
//! scheduling cannot work under the physical interference model, and why the
//! SCREAM primitive's global reach is necessary.
//!
//! The example builds the line-network counterexample from the proof sketch,
//! runs a strawman localized greedy scheduler on it, and shows that the slot
//! it produces violates the SINR constraints — while the global check used by
//! GreedyPhysical/FDD rejects the offending link.
//!
//! Run with: `cargo run --release --example impossibility`

use scream::protocols::impossibility::{CounterExample, LocalizedGreedy};

fn main() {
    for k in [1usize, 2, 4] {
        let ce = CounterExample::for_locality(k).expect("k is at least one hop");
        let env = ce.environment();
        let graph = env.communication_graph();
        let separation = ce.link_separation_hops(&graph);

        println!(
            "locality k = {k}: line of {} nodes, candidate links {} and {} are {} hops apart",
            ce.deployment.len(),
            ce.link_l,
            ce.link_l_prime,
            separation
        );
        println!(
            "  each link alone satisfies the SINR threshold ({:.1} dB): l -> {}, l' -> {}",
            ce.sinr_threshold_db,
            env.slot_feasible(&[ce.link_l]),
            env.slot_feasible(&[ce.link_l_prime]),
        );
        println!(
            "  both links in the same slot are feasible under the physical model: {}",
            env.slot_feasible(&[ce.link_l, ce.link_l_prime])
        );

        // The strawman localized scheduler admits both links, because each
        // decision only consults links within k hops.
        let localized = LocalizedGreedy::new(k);
        let mut slot = Vec::new();
        if localized.admits(&env, &graph, &slot, ce.link_l) {
            slot.push(ce.link_l);
        }
        let admitted_second = localized.admits(&env, &graph, &slot, ce.link_l_prime);
        if admitted_second {
            slot.push(ce.link_l_prime);
        }
        println!(
            "  localized greedy (k = {k}) admitted the far link: {admitted_second}; resulting slot feasible: {}",
            env.slot_feasible(&slot)
        );
        println!(
            "  global SINR check (what FDD's handshake + SCREAM veto implements): admits far link = {}",
            env.can_add_to_slot(&[ce.link_l], ce.link_l_prime)
        );
        println!();
    }
    println!("A localized rule builds infeasible slots on these instances for every constant k;");
    println!("the SCREAM-based protocols avoid this by verifying each slot with a network-wide primitive.");
}
