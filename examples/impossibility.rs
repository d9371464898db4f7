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

use scream::prelude::*;
use scream::protocols::impossibility::{CounterExample, LocalizedGreedy};

fn main() {
    for k in [1usize, 2, 4] {
        let ce = CounterExample::for_locality(k).expect("k is at least one hop");
        let env = ce.environment();
        let graph = env.communication_graph();
        let separation = ce.link_separation_hops(&graph);
        let feasible = |slot: &[Link]| SlotLedger::with_links(&env, slot).slot_feasible();

        println!(
            "locality k = {k}: line of {} nodes, candidate links {} and {} are {} hops apart",
            ce.deployment.len(),
            ce.link_l,
            ce.link_l_prime,
            separation
        );
        let (l_alone, l_prime_alone) = (feasible(&[ce.link_l]), feasible(&[ce.link_l_prime]));
        println!(
            "  each link alone satisfies the SINR threshold ({:.1} dB): l -> {l_alone}, l' -> {l_prime_alone}",
            ce.sinr_threshold_db.get(),
        );
        assert!(l_alone && l_prime_alone, "each link is feasible alone");
        let pair = feasible(&[ce.link_l, ce.link_l_prime]);
        println!("  both links in the same slot are feasible under the physical model: {pair}");
        assert!(!pair, "the pair is infeasible");

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
            feasible(&slot)
        );
        assert!(
            admitted_second,
            "the localized rule cannot see l and admits l'"
        );
        let global = SlotLedger::with_links(&env, &[ce.link_l]).can_add(ce.link_l_prime);
        println!(
            "  global SINR check (what FDD's handshake + SCREAM veto implements): admits far link = {global}"
        );
        assert!(!global, "the ledger refuses the far link");
        println!();
    }
    println!("A localized rule builds infeasible slots on these instances for every constant k;");
    println!("the SCREAM-based protocols avoid this by verifying each slot with a network-wide primitive.");
}
