//! The interference ledger: incremental slot-feasibility state.
//!
//! Every feasibility decision in the system — the GreedyPhysical first-fit
//! loop, schedule verification, and the distributed PDD/FDD/AFDD runtime —
//! ultimately asks the same question: *can this link join this slot without
//! breaking anyone's two-way handshake?* Answering it from scratch costs
//! O(k²) received-power lookups per probe (every link re-checked against
//! every other), which made slot feasibility the hottest quadratic path in
//! the workspace.
//!
//! [`SlotLedger`] exploits the additive structure of the physical model:
//! the only slot-dependent quantity in a link's SINR is the *sum* of
//! interfering received powers at its two receivers. A handshake has two
//! directions — data (head → tail) and ACK (tail → head) — and the paper's
//! condition is the same in each: the direction's receiver must hear its
//! transmitter at β over noise plus the other links' transmitters *of that
//! direction*, `signal/β − noise − Σ interference ≥ 0`. The ledger keeps
//! that left-hand side, per scheduled link and per direction, as one exact
//! integer, the link's **slack**:
//!
//! * every power is read in fixed point, `fx(p) = ⌊p · 2⁸⁰⌋` for `p` in mW
//!   (±1.4 · 10¹⁴ mW at a resolution of 8 · 10⁻²⁵ mW, fourteen orders of
//!   magnitude below a −100 dBm floor): one `f64 → i64` truncation for any
//!   term up to −51 dBm, a decode of the `f64` bits beyond;
//! * a slack starts at the link's *cap* `fx(signal/β) − fx(noise)` and loses
//!   `fx(term)` per interferer.
//!
//! Integer addition is associative, so a slack — and every verdict below,
//! "slack minus the tentative links' terms is ≥ 0", data first — is a
//! function of the set of links alone, not of the order they were assigned
//! or probed in. [`can_add`](SlotLedger::can_add) is an O(k) pass of such
//! comparisons and [`assign`](SlotLedger::assign) an O(k) update — no `Vec`
//! cloning, no from-scratch SINR recomputation. The distributed runtime's
//! batched claim check ([`probe_claims`](ChannelSlotLedger::probe_claims))
//! prices a whole tentative active set in O((k + a)·a) instead of
//! O((k + a)²). The conversion saturates, and a non-finite value never
//! accepts: a term beyond the range (co-located loud nodes) or NaN counts as
//! `i128::MAX`, a non-finite cap as `i128::MIN`. Terms are non-negative, so a
//! saturating subtraction ends at `max(i128::MIN, cap − Σ)` in any order.
//!
//! A `SlotLedger` is one channel. What the schedulers, the verifier and the
//! distributed runtime hold is a [`ChannelSlotLedger`]: one `SlotLedger` per
//! orthogonal channel — their occupancy bits together are the
//! one-radio-per-node rule — with the slot-claim check
//! ([`probe_claims`](ChannelSlotLedger::probe_claims)) on top. The paper's
//! single shared channel is that type with one channel — the cross-channel
//! rule is vacuous and every decision is the plain ledger's, as the
//! `single_channel_*_degenerates_*` tests pin — not a separate code path.
//!
//! The schedulers' incremental slot interface, [`SlotAccumulator`], is
//! defined here too (`scream_scheduling` re-exports it), and
//! `ChannelSlotLedger` implements it directly: its probe, fill, read and
//! `clear` are the trait's methods, not inherent twins. Only
//! [`ChannelSlotLedger::assign`] is both, so that a caller without the trait
//! in scope can still fill a slot.
//!
//! # Spatial pruning
//!
//! At 10⁵–10⁶ links even the O(k) `can_add` pass dominates: a slot holds
//! thousands of links, nearly all of them geometrically irrelevant to any
//! one candidate. Beyond the environment's *far-field cutoff* any single
//! transmitter delivers at most a fixed `unit_mw`, a 10⁻⁴ fraction of the
//! noise floor, whatever its power or shadowing draw. A default-constructed
//! ledger on a deployment wider than that cutoff therefore threads a private
//! bucket index of the assigned endpoints (half-cutoff cells) through the
//! feasibility probe (deployments that fit inside one cutoff disc skip the
//! index — every link is "near", so it could never pay for itself; see
//! [`SlotLedger::new`]):
//!
//! * in each direction, the candidate's interference sum is taken over the
//!   assigned transmitters within the cutoff disc around its receiver only,
//!   visited in Chebyshev rings so a doomed candidate is **rejected** as soon
//!   as that near partial sum exceeds its cap;
//! * the (≤ `unit_mw`-each) far transmitters are replaced by one aggregated
//!   upper bound, `near + (k − near_count) · fx(unit_mw)`, which **accepts**
//!   the candidate when it is within the cap in both directions
//!   (`the_far_field_bound_holds_against_a_ring_at_maximum_boost` attacks
//!   it with a thousand transmitters at the bound's worst case);
//! * assigned links are re-checked individually only when an endpoint of
//!   theirs lies inside the candidate's cutoff disc, provided the binding
//!   victims' least slack is at least `fx(unit_mw)`, the most a far
//!   transmitter can take from any link.
//!
//! A screen sums the very integers the exact sum adds, and `fx` is monotone
//! (`p ≤ unit_mw` implies `fx(p) ≤ fx(unit_mw)`), so each screen is one
//! exact comparison of a sub-sum or an upper bound of the exact sum: no
//! margin is involved, anything a screen does not decide falls back to the
//! exact O(k) computation, and **pruned and exact verdicts are identical**:
//! [`SlotLedger::exact`] / [`ChannelSlotLedger::exact`] disable pruning and
//! the `pruned_ledger_matches_exact_*` property tests pin decision-for-decision
//! agreement (and byte-identical schedules) between the two. [`assign`]
//! itself stays exact, so the slacks never depend on pruning at all.
//!
//! [`assign`]: SlotLedger::assign
//!
//! # Binding-victim screen
//!
//! A slot that first-fit has filled is *saturated*: some assigned link has
//! almost no slack left, and any further transmitter breaks it. Most probes
//! against such a slot are rejections, and the scans above pay O(nearby)
//! (plus, often, the exact O(k) fallbacks) to discover what one conjunct
//! would have shown. [`assign`]'s settling pass therefore also tracks, per
//! handshake direction, the assigned link of least slack (the *binding
//! victims*, which also answer [`all_links_ok`](SlotLedger::all_links_ok) in
//! O(1)), and a `Cell` memo remembers the last link whose existing-links
//! re-check failed — consecutive candidates probing one slot tend to be
//! neighbours and to break the same victim.
//! [`can_add`](SlotLedger::can_add) evaluates those ≤ 3 links' re-checks
//! right after the endpoint screen, in the exact and the pruned regime alike,
//! and rejects when one fails.
//!
//! Soundness is a matter of conjunction order: the accept verdict is the
//! conjunction, over every assigned link and both directions, of
//! `slack_i − fx(term_i(candidate)) ≥ 0` (and of the candidate's own
//! handshake). The screen evaluates some of those very conjuncts, so a
//! failing one makes the verdict `false` whatever the others say, and a
//! passing one decides nothing: the probe proceeds as if the screen were
//! absent. Which links the screen picks (the slack ranking, the memo's
//! history) can therefore change a probe's cost but never its verdict.
//!
//! # Refusal screen
//!
//! `SlotLedger::surely_refuses` lets first-fit pass a slot
//! by unprobed. Its screen is derived lazily from the two binding victims (a
//! `Cell` beside the memo, dropped by [`assign`] and `clear`): *closed* when
//! the least power any node delivers at a victim's receiver already breaks
//! it, else — streamed gains only, where gain is a function of distance — a
//! *disc* around that receiver inside which every transmitter does. It
//! evaluates the victim's own conjunct with a lower bound `floor ≤ term` for
//! the candidate's received power, and `fx` is monotone, so `false` at the
//! floor is `false` at the term: `true` implies `can_add` is `false`, `false`
//! implies nothing, and `can_add` never consults it (the private `refusal`
//! module has the rest).
//!
//! # Fidelity to the paper's definition
//!
//! The ledger is the workspace's one SINR verdict: no other product code
//! evaluates the model above. A set of links is a feasible slot (Section II)
//! when no node serves two of them (half-duplex, no self-links, no node the
//! environment lacks) and both sub-slots of every link reach β — the data
//! sub-slot at the tail against the other links' heads, the ACK sub-slot at
//! the head against their tails, an interferer that is the link's own
//! transmitter or receiver not counting (a node does not interfere with a
//! transmission it takes part in). That definition is pinned against an
//! independent oracle in `tests/common/oracle.rs`, which shares no code with
//! this crate: its own log-distance path loss from node coordinates, the
//! shadowing draws passed in as data. `ledger_matches_from_scratch_feasibility`
//! (every `can_add` and `slot_feasible`), `ledger_probe_matches_handshake_ok`
//! (`probe_claims` at C = 1) and `batched_placement_matches_per_unit` (whole
//! schedules) in `tests/properties.rs` hold the ledger to it on shadowed
//! instances, and every schedule `tests/end_to_end.rs` verifies is checked by
//! it too. The oracle sums in floating point, so it answers "too close to
//! call" within an error bound of its own sum; the suites compare decisive
//! verdicts only and assert that no drawn instance is undecided. Where the
//! undecided ones are — instances bisected to the last ulp of a feasibility
//! boundary — `one_verdict_whatever_the_order_at_the_feasibility_boundary`
//! holds the ledger to the same verdict under every assignment order, and
//! every greedy frame to its verifier under every `EdgeOrdering`.

use std::cell::Cell;

use scream_topology::{Link, NodeId};

use crate::environment::{FarField, RadioEnvironment};
use crate::radio::ChannelId;
use crate::refusal::RefusalScreen;
use crate::spatial::{entry_is_head, entry_link, EndpointBuckets, GridGeometry};
use crate::units::Db;

/// Fraction bits of the ledger's fixed point: one unit is 2⁻⁸⁰ mW, so that
/// `i64` holds every term up to −51 dBm and one truncation converts it.
const FX_FRACTION_BITS: i32 = 80;

/// `mw` milliwatts in the ledger's fixed point: `⌊mw · 2⁸⁰⌋`, saturating at
/// the ends of `i128`; NaN saturates upwards, like a term too loud to
/// represent.
#[inline]
pub(crate) fn fx(mw: f64) -> i128 {
    // Exact: a power-of-two scale only moves the exponent (or overflows to
    // ∞, which the decode below saturates).
    let scaled = mw * (1u128 << FX_FRACTION_BITS) as f64;
    if (0.0..(1u64 << 63) as f64).contains(&scaled) {
        // Below 2⁶³ units (7.6 · 10⁻⁶ mW, −51 dBm: every interference term
        // short of near-field ones) the hardware truncation is the floor.
        return i128::from(scaled as i64);
    }
    fx_decoded(mw)
}

/// [`fx`] off its fast path: NaN and ±∞ saturate like what is too large for
/// the range, negative values floor away from zero, and the rest are
/// integers beyond 2⁶³ units, `mantissa · 2^exponent` with `exponent ≥ 11`.
#[cold]
fn fx_decoded(mw: f64) -> i128 {
    let (scale, limit) = ((1u128 << FX_FRACTION_BITS) as f64, (1u128 << 127) as f64);
    match mw * scale {
        scaled if scaled.is_nan() || scaled >= limit => i128::MAX,
        scaled if scaled <= -limit => i128::MIN,
        // ⌊x⌋ = −(−⌊x⌋), whose magnitude is an integer and converts exactly.
        scaled if scaled < 0.0 => -fx(-scaled.floor() / scale),
        scaled => {
            let bits = scaled.to_bits();
            i128::from(bits & ((1 << 52) - 1) | 1 << 52) << ((bits >> 52) as i32 - 1075)
        }
    }
}

/// A fixed-point amount back in milliwatts (rounded), for diagnostics and
/// for sizing the refusal disc.
pub(crate) fn mw_of(value: i128) -> f64 {
    value as f64 / 2f64.powi(FX_FRACTION_BITS)
}

/// The slack a link with `signal_mw` at its receiver has before any
/// interference: `fx(signal/β) − fx(noise)`, or `i128::MIN` when the ratio
/// is not finite.
pub(crate) fn cap(signal_mw: f64, beta: f64, noise_fx: i128) -> i128 {
    let ratio_mw = signal_mw / beta;
    if ratio_mw.is_finite() {
        fx(ratio_mw).saturating_sub(noise_fx)
    } else {
        i128::MIN
    }
}

/// Per-link SINR slack relative to the threshold β, in dB.
///
/// Positive margins mean the handshake direction succeeds with that much
/// room; a negative margin identifies the failing direction and by how much
/// it misses. Reported by schedule verification for infeasible slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSinrMargin {
    /// The link the margins belong to.
    pub link: Link,
    /// SINR slack of the data sub-slot (head → tail).
    pub data_margin_db: Db,
    /// SINR slack of the ACK sub-slot (tail → head).
    pub ack_margin_db: Db,
}

impl LinkSinrMargin {
    /// Whether both handshake directions meet the threshold.
    pub fn ok(&self) -> bool {
        self.data_margin_db >= Db::new(0.0) && self.ack_margin_db >= Db::new(0.0)
    }
}

impl std::fmt::Display for LinkSinrMargin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: data {:+.2} dB, ack {:+.2} dB",
            self.link,
            self.data_margin_db.get(),
            self.ack_margin_db.get()
        )
    }
}

/// One direction of a link's two-way handshake (see the [module docs](self)):
/// the same SINR condition, read with the roles of head and tail swapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// The data sub-slot: head → tail.
    Data = 0,
    /// The ACK sub-slot: tail → head.
    Ack = 1,
}

/// Both directions, data first — the order every verdict reads them in.
pub(crate) const DIRS: [Dir; 2] = [Dir::Data, Dir::Ack];

impl Dir {
    /// The node transmitting in this direction of `link`.
    #[inline]
    pub(crate) fn tx(self, link: Link) -> NodeId {
        match self {
            Dir::Data => link.head,
            Dir::Ack => link.tail,
        }
    }

    /// The node receiving in this direction of `link`.
    #[inline]
    pub(crate) fn rx(self, link: Link) -> NodeId {
        match self {
            Dir::Data => link.tail,
            Dir::Ack => link.head,
        }
    }

    /// The opposite direction.
    #[inline]
    fn other(self) -> Dir {
        match self {
            Dir::Data => Dir::Ack,
            Dir::Ack => Dir::Data,
        }
    }
}

/// One conjunct of the accept verdict: direction `dir` of the assigned link
/// at `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Victim {
    index: usize,
    dir: Dir,
}

/// Incremental interference state of one STDMA slot under construction.
///
/// See the [module docs](self) for the representation; in short, the ledger
/// holds, per assigned link and handshake direction, its fixed-point slack,
/// plus one occupancy bit per node for O(1) half-duplex checks — state that
/// grows with the slot's links, not with the network, apart from those
/// ⌈n/64⌉ words.
#[derive(Debug, Clone)]
pub struct SlotLedger<'a> {
    env: &'a RadioEnvironment,
    /// Cached linear SINR threshold β.
    beta: f64,
    /// The noise floor in fixed point.
    noise_fx: i128,
    links: Vec<Link>,
    /// Per link, each direction's slack (indexed by [`Dir`]): its cap minus
    /// the terms of the other links' transmitters of that direction.
    slack: Vec<[i128; 2]>,
    /// One bit per node, set while an assigned link touches it (half-duplex
    /// occupancy), in ⌈n/64⌉ words.
    occupied: Vec<u64>,
    /// Whether every pair of assigned links is endpoint-disjoint and no
    /// assigned link is a self-link or has a node the environment lacks.
    disjoint: bool,
    /// Spatial pruning state; `None` for an [`exact`](Self::exact) ledger.
    pruning: Option<Pruning>,
    /// The binding victims: per direction, the assigned link of least slack.
    /// Maintained by [`assign`](Self::assign), `None` after
    /// [`clear`](Self::clear).
    binding: [Option<Victim>; 2],
    /// The last victim that failed an existing-links re-check. Only steers
    /// which conjunct a probe evaluates first, never a verdict (see the
    /// module docs), hence interior mutability behind `&self` probes.
    failed_memo: Cell<Option<Victim>>,
    /// The refusal screen of the current binding victims, derived by the
    /// first [`surely_refuses`](Self::surely_refuses) after a change.
    refusal: Cell<Option<RefusalScreen>>,
}

/// How a [`SlotLedger`] decides whether to build spatial-pruning state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PruningMode {
    /// Prune iff the deployment extent exceeds the far-field cutoff.
    Auto,
    /// Always prune (tests and benchmarks of the pruned path itself).
    Forced,
    /// Never prune (the exact reference).
    Off,
}

/// Spatial-pruning state of a [`SlotLedger`]: the far-field parameters and
/// the endpoint bucket index.
#[derive(Debug, Clone)]
struct Pruning {
    far: FarField,
    buckets: EndpointBuckets,
    /// `fx(unit_mw)`: no far transmitter's term exceeds it.
    unit_fx: i128,
}

/// Word index and mask of `node`'s bit in [`SlotLedger::occupied`].
#[inline]
fn occupancy_bit(node: NodeId) -> (usize, u64) {
    (node.index() / 64, 1 << (node.index() % 64))
}

/// Interference term of `interferer`'s `dir` transmitter at `link`'s `dir`
/// receiver, in fixed point, honoring the exclusion rule of the paper's
/// definition (see the [module docs](self)): a node never interferes with a
/// transmission it is itself the transmitter or receiver of — which also
/// leaves a link's own terms out of its sums.
#[inline]
fn term(env: &RadioEnvironment, dir: Dir, interferer: Link, link: Link) -> Option<i128> {
    let tx = dir.tx(interferer);
    (tx != link.head && tx != link.tail).then(|| fx(env.received_mw(tx, dir.rx(link))))
}

/// The far-field accept bound: an upper bound on a direction's exact
/// interference over `k` assigned transmitters, `near_count` of which lie in
/// the cutoff disc and sum to `near`, the rest taking at most `unit` each.
#[inline]
fn far_field_upper(near: i128, k: usize, near_count: usize, unit: i128) -> i128 {
    near.saturating_add(unit.saturating_mul((k - near_count) as i128))
}

impl<'a> SlotLedger<'a> {
    /// Opens an empty ledger over the given environment. Spatial pruning is
    /// enabled when the deployment's extent exceeds the far-field cutoff —
    /// the only case where a probe can ever skip an interferer — and is
    /// skipped otherwise, because on a deployment that fits inside one
    /// cutoff disc every link is "near" and the bucket index is pure
    /// overhead (it costs the small-instance ledger its edge over the
    /// from-scratch path). Either way decisions are identical to an
    /// [`exact`](Self::exact) ledger's; use [`pruned`](Self::pruned) to
    /// force the pruned probe path regardless of extent.
    pub fn new(env: &'a RadioEnvironment) -> Self {
        Self::with_pruning(env, PruningMode::Auto)
    }

    /// Opens an empty ledger with spatial pruning forced on (extent
    /// heuristic bypassed) — for equivalence tests and benchmarks that must
    /// exercise the pruned probe path on instances of any size.
    pub fn pruned(env: &'a RadioEnvironment) -> Self {
        Self::with_pruning(env, PruningMode::Forced)
    }

    /// Opens an empty ledger with spatial pruning disabled: every probe sums
    /// all assigned interferers. The reference implementation the pruned
    /// path is equivalence-tested (and benchmarked) against.
    pub fn exact(env: &'a RadioEnvironment) -> Self {
        Self::with_pruning(env, PruningMode::Off)
    }

    fn with_pruning(env: &'a RadioEnvironment, mode: PruningMode) -> Self {
        let pruning = if mode == PruningMode::Off {
            None
        } else {
            let far = env.far_field();
            // A non-positive cutoff means nothing transmits; pruning would
            // only add overhead (and a degenerate grid).
            let [min_x, max_x, min_y, max_y] = env.bounding_box_m;
            (far.cutoff_m.get() > 0.0
                && (mode == PruningMode::Forced || {
                    let (dx, dy) = ((max_x - min_x).max(0.0), (max_y - min_y).max(0.0));
                    dx * dx + dy * dy > far.cutoff_sq_m2
                }))
            .then(|| {
                // Half-cutoff cells keep the disc scan to a few rings while
                // giving the ring-order early exit useful granularity.
                let geometry =
                    GridGeometry::covering_box(env.bounding_box_m, far.cutoff_m.get() / 2.0);
                Pruning {
                    far,
                    buckets: EndpointBuckets::new(geometry),
                    unit_fx: fx(far.unit_mw.get()),
                }
            })
        };
        Self {
            env,
            beta: env.config().sinr_threshold_linear(),
            noise_fx: fx(env.config().noise_floor_mw().get()),
            links: Vec::new(),
            slack: Vec::new(),
            occupied: vec![0; env.node_count().div_ceil(64)],
            disjoint: true,
            pruning,
            binding: [None; 2],
            failed_memo: Cell::new(None),
            refusal: Cell::new(None),
        }
    }

    /// Whether this ledger prunes its feasibility probes spatially.
    pub fn is_pruned(&self) -> bool {
        self.pruning.is_some()
    }

    /// Builds a ledger containing `links`, assigned in the given order.
    pub fn with_links(env: &'a RadioEnvironment, links: &[Link]) -> Self {
        let mut ledger = Self::new(env);
        ledger.assign_all(links);
        ledger
    }

    /// Empties the ledger in O(k) without releasing any buffer, so one ledger
    /// can be reused across many slots (the verifier across patterns, the
    /// runtime across rounds). After `clear` the ledger is indistinguishable
    /// from a freshly [`new`](Self::new)-opened one.
    pub fn clear(&mut self) {
        for link in &self.links {
            for (word, bit) in [link.head, link.tail].map(occupancy_bit) {
                if let Some(w) = self.occupied.get_mut(word) {
                    *w &= !bit;
                }
            }
        }
        self.links.clear();
        self.slack.clear();
        self.disjoint = true;
        self.binding = [None; 2];
        self.failed_memo.set(None);
        self.refusal.set(None);
        if let Some(p) = &mut self.pruning {
            p.buckets.clear();
        }
    }

    /// The links assigned so far, in assignment order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of assigned links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no link has been assigned yet.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Whether `node` is unavailable to a new link: an assigned link touches
    /// it, or the environment does not have it.
    #[inline]
    fn busy(&self, node: NodeId) -> bool {
        let (word, bit) = occupancy_bit(node);
        node.index() >= self.env.node_count()
            || self.occupied.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Whether `link` is already assigned. Screened through the occupancy
    /// bits first: a link with an idle endpoint cannot be in the slot, which
    /// turns the common negative answer into O(1) instead of an O(k) scan
    /// (the difference between quadratic and linear run scans in the greedy
    /// scheduler at 10⁵ links).
    pub(crate) fn contains(&self, link: Link) -> bool {
        self.busy(link.head) && self.busy(link.tail) && self.links.contains(&link)
    }

    /// Whether neither endpoint of `link` is used by an assigned link and
    /// both are nodes of the environment (the half-duplex precondition for
    /// adding it).
    fn endpoints_free(&self, link: Link) -> bool {
        !self.busy(link.head) && !self.busy(link.tail)
    }

    /// Whether `candidate` can join the slot: it must not be a self-link,
    /// must not share an endpoint with any assigned link, its own two-way
    /// handshake must survive the slot's accumulated interference, and its
    /// interference must not push any assigned link below the SINR threshold.
    ///
    /// O(k) instead of the O(k²) of re-deriving every SINR, allocation-free
    /// — and on a default (pruned) ledger O(nearby) instead of O(k), with a
    /// verdict identical to the exact computation (see the
    /// [module docs](self)).
    pub fn can_add(&self, candidate: Link) -> bool {
        scream_obs::next_probe();
        if candidate.head == candidate.tail || !self.endpoints_free(candidate) {
            scream_obs::counter_add("ledger.probe.reject", 1);
            scream_obs::counter_add("ledger.probe.reject_endpoint", 1);
            return false;
        }
        let tentative = std::slice::from_ref(&candidate);
        if let Some((victim, counter)) = self.failing_binding_victim(tentative) {
            scream_obs::counter_add("ledger.probe.reject", 1);
            scream_obs::counter_add(counter, 1);
            self.trace_reject(candidate, victim);
            return false;
        }
        let verdict = match &self.pruning {
            Some(p) if !self.links.is_empty() => self.can_add_pruned(p, candidate),
            _ => self.candidate_handshake_exact(candidate) && self.existing_ok_exact(candidate),
        };
        scream_obs::counter_add(
            if verdict {
                "ledger.probe.accept"
            } else {
                "ledger.probe.reject"
            },
            1,
        );
        verdict
    }

    /// The refusal screen (see the [module docs](self)): `true` only if
    /// [`can_add`](Self::can_add) is `false` for `candidate`, decided without
    /// probing; `false` decides nothing.
    pub(crate) fn surely_refuses(&self, candidate: Link) -> bool {
        let screen = self.refusal.get().unwrap_or_else(|| self.derive_refusal());
        screen.refuses(self.env, candidate)
    }

    /// Whether the refusal screen of the current binding victims is closed:
    /// `true` only if [`can_add`](Self::can_add) is `false` for every
    /// candidate, now and after any later [`assign`](Self::assign).
    pub(crate) fn closed(&self) -> bool {
        let screen = self.refusal.get().unwrap_or_else(|| self.derive_refusal());
        screen.is_closed()
    }

    /// Derives and caches the refusal screen of the current binding victims.
    fn derive_refusal(&self) -> RefusalScreen {
        let victims = self.binding.map(|victim| {
            victim.map(|Victim { index: i, dir }| {
                (self.slack[i][dir as usize], dir.rx(self.links[i]))
            })
        });
        let screen = RefusalScreen::derive(self.env, victims);
        self.refusal.set(Some(screen));
        screen
    }

    /// The binding-victim screen (see the [module docs](self)): re-checks
    /// the two least-slack links, then the memoised last-failed link, with
    /// `tentative` transmitting, and returns the first that fails together
    /// with the counter its rejection is booked under. Each check is a
    /// conjunct of the verdict, evaluated exactly as the full loop would, so
    /// a failure decides the probe and a pass decides nothing.
    fn failing_binding_victim(&self, tentative: &[Link]) -> Option<(Victim, &'static str)> {
        for victim in self.binding.into_iter().flatten() {
            if !self.victim_ok(victim, tentative) {
                return Some((victim, "ledger.victim.reject"));
            }
        }
        let memo = self.failed_memo.get()?;
        (!self.binding.contains(&Some(memo)) && !self.victim_ok(memo, tentative))
            .then_some((memo, "ledger.victim.memo_reject"))
    }

    /// One conjunct of the accept verdict: whether `victim`'s handshake
    /// direction keeps a non-negative slack with the `tentative` links'
    /// terms taken from it.
    #[inline]
    fn victim_ok(&self, Victim { index: i, dir }: Victim, tentative: &[Link]) -> bool {
        let link = self.links[i];
        tentative
            .iter()
            .filter_map(|&t| term(self.env, dir, t, link))
            .fold(self.slack[i][dir as usize], i128::saturating_sub)
            >= 0
    }

    /// The first assigned link (data direction before ACK) that `tentative`
    /// would push below β, memoised for the next probe's screen.
    fn first_disturbed(&self, tentative: &[Link]) -> Option<Victim> {
        for index in 0..self.links.len() {
            for dir in DIRS {
                let victim = Victim { index, dir };
                if !self.victim_ok(victim, tentative) {
                    self.failed_memo.set(Some(victim));
                    return Some(victim);
                }
            }
        }
        None
    }

    /// Emits the reject trace event naming the victim that decided it.
    fn trace_reject(&self, candidate: Link, victim: Victim) {
        let link = self.links[victim.index];
        scream_obs::event(
            "ledger.reject",
            [
                ("head", candidate.head.index() as u64),
                ("tail", candidate.tail.index() as u64),
                ("victim_head", link.head.index() as u64),
                ("victim_tail", link.tail.index() as u64),
                ("victim_data", (victim.dir == Dir::Data) as u64),
            ],
        );
    }

    /// The candidate's own two-way handshake against every assigned link.
    /// Terms only shrink a slack, so the first negative one decides.
    fn candidate_handshake_exact(&self, candidate: Link) -> bool {
        let mut slack = self.caps(candidate);
        slack.iter().all(|&s| s >= 0)
            && self.links.iter().all(|existing| {
                slack = self.slack_against(slack, std::slice::from_ref(existing), candidate);
                slack.iter().all(|&s| s >= 0)
            })
    }

    /// `link`'s cap in each direction: its slack in an empty slot.
    #[inline]
    fn caps(&self, link: Link) -> [i128; 2] {
        DIRS.map(|dir| {
            let signal_mw = self.env.received_mw(dir.tx(link), dir.rx(link));
            cap(signal_mw, self.beta, self.noise_fx)
        })
    }

    /// Every assigned link's handshake with the candidate's term taken from
    /// its slack.
    fn existing_ok_exact(&self, candidate: Link) -> bool {
        match self.first_disturbed(std::slice::from_ref(&candidate)) {
            Some(victim) => {
                self.trace_reject(candidate, victim);
                false
            }
            None => true,
        }
    }

    /// The spatially-pruned feasibility probe. Self-link and half-duplex
    /// screens have already passed, so no assigned link shares an endpoint
    /// with the candidate and every interferer-exclusion test below is
    /// vacuously `Some` — each of the slot's `k` heads contributes to the
    /// candidate's data sum and each of its `k` tails to the ACK sum.
    ///
    /// Why its verdicts are [`exact`](Self::exact)'s — every screen compares
    /// integers the exact sums are made of:
    ///
    /// * **reject** — the near partial sum is part of the exact sum and every
    ///   term is non-negative, so exceeding the cap means the exact check
    ///   fails too;
    /// * **accept** — `near + far_count · fx(unit_mw)` bounds the exact sum
    ///   from above, so staying within the cap means the exact check passes;
    /// * **far-links skip** — a far link loses at most `fx(unit_mw)`, so
    ///   when the least slack is at least that, every far link's exact
    ///   re-check passes; nearby links are re-checked by the exact conjuncts
    ///   themselves;
    /// * anything not decided by a screen falls through to the exact code.
    fn can_add_pruned(&self, p: &Pruning, candidate: Link) -> bool {
        let caps = self.caps(candidate);
        // An interference-free failure fails a fortiori with interference.
        if caps.iter().any(|&cap| cap < 0) {
            scream_obs::counter_add("ledger.prune.signal_reject", 1);
            return false;
        }
        let far_links_ok = self
            .binding
            .iter()
            .flatten()
            .all(|v| self.slack[v.index][v.dir as usize] >= p.unit_fx);

        // One scan per direction, data first: the disc around the candidate's
        // receiver, whose in-disc transmitters feed the near sum.
        let mut near = [(0, 0); 2];
        for dir in DIRS {
            let Some(scanned) = self.scan_disc(p, candidate, dir, caps[dir as usize], far_links_ok)
            else {
                scream_obs::counter_add("ledger.prune.scan_reject", 1);
                return false;
            };
            near[dir as usize] = scanned;
        }

        let k = self.links.len();
        let candidate_ok = if DIRS.iter().all(|&dir| {
            let (near_fx, near_count) = near[dir as usize];
            far_field_upper(near_fx, k, near_count, p.unit_fx) <= caps[dir as usize]
        }) {
            scream_obs::counter_add("ledger.farfield.accept", 1);
            true
        } else {
            scream_obs::counter_add("ledger.exact.fallback", 1);
            self.candidate_handshake_exact(candidate)
        };
        if !candidate_ok {
            return false;
        }
        // Nearby links were re-checked during the scans (a failure returned
        // early); far links are pre-cleared by the slack screen, or the
        // whole set is re-checked exactly.
        if far_links_ok {
            scream_obs::counter_add("ledger.farfield.skip_existing", 1);
            true
        } else {
            scream_obs::counter_add("ledger.exact.fallback_existing", 1);
            self.existing_ok_exact(candidate)
        }
    }

    /// Ring-scans the bucket index over the cutoff disc around the
    /// candidate's `dir` receiver, returning its near interference sum and
    /// the number of in-disc `dir` transmitters, or `None` as soon as either
    /// the partial sum exceeds the candidate's `cap` (checked after each
    /// Chebyshev ring, nearest — loudest — cells first) or an in-disc link
    /// fails its exact re-check. That re-check is of the in-disc link's
    /// *other* direction: its `dir` transmitter sits near the candidate's
    /// `dir` receiver, so the candidate's opposite transmitter sits near the
    /// in-disc link's opposite receiver, close enough to take more than the
    /// far-field unit.
    fn scan_disc(
        &self,
        p: &Pruning,
        candidate: Link,
        dir: Dir,
        cap: i128,
        check_in_disc_links: bool,
    ) -> Option<(i128, usize)> {
        let geometry = p.buckets.geometry();
        let (rx, center) = (dir.rx(candidate), self.env.position(dir.rx(candidate)));
        let rect = geometry.cells_intersecting(center, p.far.cutoff_m);
        let near_sum = Cell::new(0i128);
        let near_count = Cell::new(0usize);
        let failed_link = Cell::new(None);
        let scanned_entries = Cell::new(0u64);
        rect.visit_rings(
            geometry.cell_of(center),
            |cx, cy| {
                if failed_link.get().is_some() {
                    return;
                }
                for &entry in p.buckets.entries(geometry.cell_index(cx, cy)) {
                    scanned_entries.set(scanned_entries.get() + 1);
                    if entry_is_head(entry) != (dir == Dir::Data) {
                        continue;
                    }
                    let i = entry_link(entry);
                    let tx = dir.tx(self.links[i]);
                    if self.env.position(tx).distance_squared(center) > p.far.cutoff_sq_m2 {
                        continue;
                    }
                    // The in-disc transmitter's term at the candidate, and the
                    // candidate's opposite transmitter's term back at it.
                    let [to_candidate, from_candidate] = self.env.received_pair_fx(tx, rx);
                    near_sum.set(near_sum.get().saturating_add(to_candidate));
                    near_count.set(near_count.get() + 1);
                    let other = dir.other();
                    // The conjunct the exact existing-links loop evaluates.
                    if check_in_disc_links
                        && self.slack[i][other as usize].saturating_sub(from_candidate) < 0
                    {
                        failed_link.set(Some(Victim {
                            index: i,
                            dir: other,
                        }));
                        return;
                    }
                }
            },
            || failed_link.get().is_some() || near_sum.get() > cap,
        );
        scream_obs::observe("ledger.scan.entries", scanned_entries.get());
        if let Some(victim) = failed_link.get() {
            self.failed_memo.set(Some(victim));
            self.trace_reject(candidate, victim);
            return None;
        }
        (near_sum.get() <= cap).then(|| (near_sum.get(), near_count.get()))
    }

    /// Adds `link` to the slot, updating every slack in O(k). The link is
    /// *not* required to pass [`can_add`](Self::can_add): the greedy
    /// scheduler deliberately opens slots around links that are infeasible
    /// even alone (the verifier reports them), and the distributed runtime
    /// seals whatever its handshakes admitted. Two halves: *charge* the
    /// slacks, then *settle* what is derived from them.
    pub fn assign(&mut self, link: Link) {
        self.charge(link);
        self.settle();
    }

    /// Adds `links` in order and settles once: the additions of one
    /// [`assign`](Self::assign) per link in the same order, so every slack,
    /// victim and bucket is identical to that. How a pattern is filled.
    pub fn assign_all(&mut self, links: &[Link]) {
        links.iter().for_each(|&link| self.charge(link));
        if !links.is_empty() {
            self.settle();
        }
    }

    /// The additive half of [`assign`](Self::assign): the `k` assigned links'
    /// terms off the newcomer's two slacks, and its terms off theirs.
    fn charge(&mut self, link: Link) {
        if link.head == link.tail || !self.endpoints_free(link) {
            self.disjoint = false;
        }
        let mut own = self.caps(link);
        for (slack, &existing) in self.slack.iter_mut().zip(&self.links) {
            // The existing link's `dir` transmitter and the newcomer's `dir`
            // receiver are one node pair, which the newcomer's opposite
            // transmitter reaches the existing link's opposite receiver over:
            // one pair, two terms, with `term`'s exclusion rule for each.
            for dir in DIRS {
                let (a, b) = (dir.tx(existing), dir.rx(link));
                let [a_to_b, b_to_a] = self.env.received_pair_fx(a, b);
                if a != link.head && a != link.tail {
                    own[dir as usize] = own[dir as usize].saturating_sub(a_to_b);
                }
                if b != existing.head && b != existing.tail {
                    let d = dir.other() as usize;
                    slack[d] = slack[d].saturating_sub(b_to_a);
                }
            }
        }
        for (word, bit) in [link.head, link.tail].map(occupancy_bit) {
            if let Some(w) = self.occupied.get_mut(word) {
                *w |= bit;
            }
        }
        let k = self.links.len();
        self.links.push(link);
        self.slack.push(own);
        let n = self.env.node_count();
        if let Some(p) = &mut self.pruning {
            // A link with a node the environment lacks has no position; its
            // own slack is `i128::MIN`, so it is the binding victim that
            // rejects every later probe before any scan.
            if link.head.index() < n && link.tail.index() < n {
                let (head_at, tail_at) =
                    (self.env.position(link.head), self.env.position(link.tail));
                p.buckets.insert(k as u32, head_at, tail_at);
            }
        }
    }

    /// The derived half of [`assign`](Self::assign), over a non-empty slot:
    /// every slack may have shrunk, so the binding victims are re-derived and
    /// the refusal screen dropped.
    fn settle(&mut self) {
        let mut least = [(i128::MAX, self.links.len() - 1); 2];
        for (i, slack) in self.slack.iter().enumerate() {
            for d in 0..2 {
                if slack[d] < least[d].0 {
                    least[d] = (slack[d], i);
                }
            }
        }
        self.binding = DIRS.map(|dir| {
            Some(Victim {
                index: least[dir as usize].1,
                dir,
            })
        });
        self.refusal.set(None);
    }

    /// Whether every assigned link currently completes both handshake
    /// directions: whether the binding victims' slacks are non-negative.
    pub fn all_links_ok(&self) -> bool {
        self.binding
            .iter()
            .flatten()
            .all(|v| self.slack[v.index][v.dir as usize] >= 0)
    }

    /// Whether the assigned set is a feasible slot by the paper's definition
    /// (see the [module docs](self)): pairwise endpoint-disjoint, no
    /// self-links, and every handshake above threshold.
    pub fn slot_feasible(&self) -> bool {
        self.disjoint && self.all_links_ok()
    }

    /// Prices a tentative active set against the slot without mutating it,
    /// unless it is vetoed: `None` when some assigned link no longer
    /// completes its handshake under the tentative links' added interference,
    /// else each tentative link's handshake against the assigned links *and*
    /// the other tentative links, in input order — O((k + a) · a) work for
    /// `a` tentative links instead of the O((k + a)²) of re-deriving every
    /// SINR.
    ///
    /// A *pure SINR* check: a tentative link sharing an endpoint with a slot
    /// link can pass, because the interferer-exclusion rule skips the shared
    /// node precisely when it is busy with its own packet.
    /// [`ChannelSlotLedger::probe_claims`], its one caller, adds the
    /// half-duplex screen.
    fn probe_unless_vetoed(&self, tentative: &[Link]) -> Option<Vec<bool>> {
        self.existing_survive(tentative)
            .then(|| self.price_tentative(tentative))
    }

    /// Whether every assigned link still completes its handshake with the
    /// tentative links' terms taken from its slack — the binding victims
    /// first, since one failure settles it.
    fn existing_survive(&self, tentative: &[Link]) -> bool {
        self.failing_binding_victim(tentative).is_none()
            && self.first_disturbed(tentative).is_none()
    }

    /// Each tentative link's handshake against the assigned links plus the
    /// other tentative links, in input order.
    fn price_tentative(&self, tentative: &[Link]) -> Vec<bool> {
        tentative
            .iter()
            .map(|&t| {
                let slack = self.slack_against(self.caps(t), &self.links, t);
                self.slack_against(slack, tentative, t)
                    .iter()
                    .all(|&s| s >= 0)
            })
            .collect()
    }

    /// Per-link SINR margins of the current slot, relative to β: diagnostics
    /// only, in floating point from the environment's powers and each
    /// direction's exact interference sum `cap − slack`.
    pub fn margins(&self) -> Vec<LinkSinrMargin> {
        let config = self.env.config();
        let noise_mw = config.noise_floor_mw().get();
        self.links
            .iter()
            .zip(&self.slack)
            .map(|(&link, slack)| {
                let caps = self.caps(link);
                let [data_margin_db, ack_margin_db] = DIRS.map(|dir| {
                    let signal_mw = self.env.received_mw(dir.tx(link), dir.rx(link));
                    let interference = caps[dir as usize].saturating_sub(slack[dir as usize]);
                    let sinr = signal_mw / (noise_mw + mw_of(interference));
                    Db::from_linear(sinr) - config.sinr_threshold_db
                });
                LinkSinrMargin {
                    link,
                    data_margin_db,
                    ack_margin_db,
                }
            })
            .collect()
    }

    /// `slack` minus, per direction, the terms `interferers` inflict on
    /// `link`.
    fn slack_against(&self, mut slack: [i128; 2], interferers: &[Link], link: Link) -> [i128; 2] {
        for &interferer in interferers {
            for dir in DIRS {
                if let Some(term) = term(self.env, dir, interferer, link) {
                    slack[dir as usize] = slack[dir as usize].saturating_sub(term);
                }
            }
        }
        slack
    }
}

/// Result of pricing a tentative active set against a multi-channel ledger
/// slot (see [`ChannelSlotLedger::probe_claims`]): a first-fit channel claim
/// per tentative link plus the aggregate health of the already-assigned
/// links.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotClaims {
    /// Whether every already-assigned link, on every channel, still completed
    /// its handshake while the tentative set transmitted during the
    /// channel-assignment phase. `false` corresponds to the SCREAM veto of
    /// the distributed protocols.
    pub existing_ok: bool,
    /// The channel each tentative link claimed, in input order; `None` means
    /// no channel accepted the claim (the link withdraws as TRIED).
    pub assignments: Vec<Option<ChannelId>>,
}

/// Stateful, incrementally-built view of one slot under construction: one
/// sub-slot per orthogonal channel plus the cross-channel half-duplex rule.
///
/// The schedulers keep one accumulator per open run (`scream_scheduling`'s
/// `SlotFeasibility::open_slot` opens it) so that every feasibility probe is
/// answered from accumulated state instead of re-deriving it from the link
/// list. [`ChannelSlotLedger`] is the physical model's.
pub trait SlotAccumulator {
    /// Number of channels in the slot (at least one).
    fn channel_count(&self) -> usize;

    /// Whether `candidate` can join the slot on `channel` without breaking
    /// per-channel feasibility or the cross-channel half-duplex rule.
    fn can_add(&self, channel: ChannelId, candidate: Link) -> bool;

    /// Adds `link` to the slot on `channel` unconditionally, updating
    /// internal state. (The greedy scheduler opens slots around links that
    /// are infeasible even alone, so `assign` must not require a prior
    /// passing [`can_add`](Self::can_add).)
    fn assign(&mut self, channel: ChannelId, link: Link);

    /// Adds `links` to the slot on `channel` in order; the same state as one
    /// [`assign`](Self::assign) per link. How a whole pattern is filled —
    /// the verifier and repair fill, then read
    /// [`channel_feasible`](Self::channel_feasible); they never probe.
    fn assign_all(&mut self, channel: ChannelId, links: &[Link]) {
        for &link in links {
            self.assign(channel, link);
        }
    }

    /// Whether the links on `channel` are a feasible slot as they stand
    /// (the cross-channel rule is not this question). For a downward-closed
    /// model it is `true` exactly when every link passed
    /// [`can_add`](Self::can_add) on its way in.
    fn channel_feasible(&self, channel: ChannelId) -> bool;

    /// Empties every channel without releasing buffers, so one accumulator
    /// can be reused across many slots (the verifier re-checks every pattern
    /// of a schedule through a single accumulator this way).
    fn clear(&mut self);

    /// The links assigned to `channel` so far, in assignment order.
    fn links(&self, channel: ChannelId) -> &[Link];

    /// Whether `link` is assigned on any channel.
    fn contains_link(&self, link: Link) -> bool {
        (0..self.channel_count()).any(|c| self.links(ChannelId::new(c as u16)).contains(&link))
    }

    /// A cheap screen in front of [`can_add`](Self::can_add): `true` only if
    /// `can_add(c, candidate)` is `false` on every channel `c`, so first-fit
    /// may pass the slot by without probing it. It can change what a
    /// placement costs, never what it decides; the default screens nothing.
    fn surely_refuses(&self, _candidate: Link) -> bool {
        false
    }

    /// The candidate-free half of the screen: `true` only if `can_add(c, l)`
    /// is `false` on every channel `c` for every link `l`, however many
    /// links are assigned after this reads `true` (see the private `refusal`
    /// module for why a refusal of everyone survives assignment although
    /// this reading may not). First-fit latches a run that refused a link
    /// and reads closed, and never screens it again; the default is never
    /// closed.
    fn closed(&self) -> bool {
        false
    }
}

/// Incremental interference state of one **multi-channel** STDMA slot under
/// construction: one [`SlotLedger`] per orthogonal channel.
///
/// Channels are orthogonal, so interference sums (and every per-channel SINR
/// decision) live entirely inside the per-channel ledgers; the only coupling
/// between channels is the **cross-channel half-duplex rule**: a node has a
/// single radio, so it may not participate in links on two different
/// channels of the same slot. "Busy on another channel" is that channel's
/// occupancy bit, an O(C) check with no state of its own.
///
/// Like [`SlotLedger`], the set has a [`clear`](SlotAccumulator::clear)
/// lifecycle so one ledger set serves every slot of a schedule (the
/// verifier) or every round of a run — buffers are retained across
/// `clear`s.
///
/// With one channel the set degenerates exactly to its single [`SlotLedger`]:
/// the cross-channel check is vacuous (there is no *other* channel), so
/// [`can_add`](SlotAccumulator::can_add) and the per-channel
/// [`SlotLedger::slot_feasible`] verdicts agree decision-for-decision with the
/// plain ledger.
#[derive(Debug, Clone)]
pub struct ChannelSlotLedger<'a> {
    channels: Vec<SlotLedger<'a>>,
    /// Whether no node participates in links on two distinct channels.
    cross_channel_disjoint: bool,
}

impl<'a> ChannelSlotLedger<'a> {
    /// Opens an empty ledger set with one channel per
    /// [`RadioEnvironment::channel_count`] (at least one).
    pub fn new(env: &'a RadioEnvironment) -> Self {
        Self::with_pruning(env, PruningMode::Auto)
    }

    /// Opens an empty ledger set whose per-channel ledgers have spatial
    /// pruning forced on (see [`SlotLedger::pruned`]).
    pub fn pruned(env: &'a RadioEnvironment) -> Self {
        Self::with_pruning(env, PruningMode::Forced)
    }

    /// Opens an empty ledger set whose per-channel ledgers have spatial
    /// pruning disabled (see [`SlotLedger::exact`]).
    pub fn exact(env: &'a RadioEnvironment) -> Self {
        Self::with_pruning(env, PruningMode::Off)
    }

    fn with_pruning(env: &'a RadioEnvironment, mode: PruningMode) -> Self {
        Self {
            channels: (0..env.channel_count())
                .map(|_| SlotLedger::with_pruning(env, mode))
                .collect(),
            cross_channel_disjoint: true,
        }
    }

    /// The per-channel ledger for `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel(&self, channel: ChannelId) -> &SlotLedger<'a> {
        &self.channels[channel.index()]
    }

    /// Whether neither endpoint of `link` is used by any assigned link on
    /// **any** channel — the half-duplex precondition for joining the slot on
    /// whichever channel.
    fn endpoints_free(&self, link: Link) -> bool {
        self.channels.iter().all(|l| l.endpoints_free(link))
    }

    /// Whether an endpoint of `link` is busy on a channel other than
    /// `channel` (one radio per node).
    fn busy_elsewhere(&self, channel: ChannelId, link: Link) -> bool {
        self.channels
            .iter()
            .enumerate()
            .any(|(c, l)| c != channel.index() && !l.endpoints_free(link))
    }

    /// Adds `link` to the slot on `channel`, unconditionally (mirroring
    /// [`SlotLedger::assign`]): force-assigned cross-channel conflicts are
    /// tracked and keep the slot infeasible.
    pub fn assign(&mut self, channel: ChannelId, link: Link) {
        if self.busy_elsewhere(channel, link) {
            self.cross_channel_disjoint = false;
        }
        self.channels[channel.index()].assign(link);
    }

    /// Every `(channel, link)` assignment, channel-major.
    pub fn assignments(&self) -> impl Iterator<Item = (ChannelId, Link)> + '_ {
        self.channels.iter().enumerate().flat_map(|(c, ledger)| {
            ledger
                .links()
                .iter()
                .map(move |&link| (ChannelId(c as u16), link))
        })
    }

    /// Whether the assigned multi-channel set is a feasible slot: every
    /// channel is feasible on its own ([`SlotLedger::slot_feasible`]) and no
    /// node appears on two distinct channels. The whole-slot verdict the
    /// tests read; product code reads each channel's.
    #[cfg(test)]
    pub(crate) fn slot_feasible(&self) -> bool {
        self.cross_channel_disjoint && self.channels.iter().all(SlotLedger::slot_feasible)
    }

    /// Per-link SINR margins of `channel`'s slot, in dB relative to β.
    pub fn margins(&self, channel: ChannelId) -> Vec<LinkSinrMargin> {
        self.channels[channel.index()].margins()
    }

    /// The slot-claim check of the distributed runtime's per-iteration
    /// handshake + SCREAM-veto step: each tentative link first-fits into the
    /// cheapest channel whose handshake it completes — a batched SINR probe
    /// plus the half-duplex screen, channel by channel.
    ///
    /// The phase runs one sub-phase per channel, in increasing channel order.
    /// In sub-phase `c` every still-unassigned tentative link transmits on
    /// channel `c` concurrently, so its handshake is priced against channel
    /// `c`'s assigned links *and* every other unassigned tentative link
    /// (links that claimed an earlier channel are orthogonal and do not
    /// interfere). A link claims channel `c` when
    ///
    /// * its two-way handshake passes on `c` under that interference,
    /// * the half-duplex screen admits it: not a self-link, both endpoints
    ///   idle on **every** channel (one radio per node), and no endpoint
    ///   shared with another tentative link (two claims cannot both complete
    ///   through one radio, whatever their channels) — the per-direction SINR
    ///   checks alone cannot see this, because the interferer-exclusion rule
    ///   skips a shared node exactly when it is busy with its own packet, so
    ///   admitting claims through the raw probe reintroduces endpoint-sharing
    ///   chains at low β that the whole-slot verdict (and the
    ///   verifier) reject — and
    /// * channel `c`'s already-assigned links all survive the sub-phase —
    ///   otherwise the sub-phase is vetoed and **no** link claims `c`,
    ///   exactly like the single-channel SCREAM veto.
    ///
    /// Links left unassigned after the last channel withdraw (`None`).
    /// With one channel there is one sub-phase: `existing_ok` says whether
    /// every assigned link completes its handshake with the whole tentative
    /// set transmitting, and `assignments[i]` is `Some(ch0)` iff no veto
    /// fired, claim `i` completes its own handshake against the assigned
    /// links and the other claims, and the screen admits it.
    pub fn probe_claims(&self, tentative: &[Link]) -> SlotClaims {
        let mut assignments: Vec<Option<ChannelId>> = vec![None; tentative.len()];
        let mut existing_ok = true;
        // Until a sub-phase has priced the claims, the unassigned set is
        // `tentative` itself and is read in place; after, it is `unassigned`
        // (indices into `tentative`), copied out into `links` per sub-phase.
        let mut priced = false;
        let mut unassigned: Vec<usize> = Vec::new();
        let mut links: Vec<Link> = Vec::new();
        // The half-duplex screen, computed by the first sub-phase that is
        // not vetoed: under a veto nobody claims, so nobody reads it.
        let mut claimable: Vec<bool> = Vec::new();
        for (c, ledger) in self.channels.iter().enumerate() {
            let pending: &[Link] = if priced {
                links.clear();
                links.extend(unassigned.iter().map(|&i| tentative[i]));
                &links
            } else {
                tentative
            };
            if pending.is_empty() {
                // Every claim is resolved, but the sub-phase still happens:
                // a channel whose force-assigned links cannot complete their
                // handshakes even undisturbed must raise its veto exactly as
                // the single-channel probe does on an empty tentative set.
                if !ledger.all_links_ok() {
                    existing_ok = false;
                }
                continue;
            }
            let Some(tentative_ok) = ledger.probe_unless_vetoed(pending) else {
                // Veto on this channel: its scheduled links were disturbed,
                // so nobody claims it; the whole set carries to the next
                // channel.
                existing_ok = false;
                continue;
            };
            if claimable.is_empty() {
                claimable = self.half_duplex_screen(tentative);
            }
            let channel = ChannelId::new(c as u16);
            let mut still_unassigned = Vec::new();
            for (at, &ok) in tentative_ok.iter().enumerate() {
                let idx = if priced { unassigned[at] } else { at };
                if ok && claimable[idx] {
                    assignments[idx] = Some(channel);
                } else {
                    still_unassigned.push(idx);
                }
            }
            unassigned = still_unassigned;
            priced = true;
        }
        SlotClaims {
            existing_ok,
            assignments,
        }
    }

    /// The channel-independent half of a claim check, per tentative link: not
    /// a self-link, both endpoints idle on every channel, and no endpoint
    /// shared with another tentative link. A link failing it can claim no
    /// channel at all, but it keeps transmitting (and hence interfering) in
    /// every sub-phase, like any other failed handshake.
    fn half_duplex_screen(&self, tentative: &[Link]) -> Vec<bool> {
        tentative
            .iter()
            .enumerate()
            .map(|(idx, link)| {
                link.head != link.tail
                    && self.endpoints_free(*link)
                    && tentative
                        .iter()
                        .enumerate()
                        .all(|(other, l)| other == idx || !l.shares_endpoint(link))
            })
            .collect()
    }
}

impl SlotAccumulator for ChannelSlotLedger<'_> {
    fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Its endpoints must be idle on every *other* channel (one radio per
    /// node), and it must pass the per-channel [`SlotLedger::can_add`] check
    /// (half-duplex within the channel plus both SINR handshake directions).
    fn can_add(&self, channel: ChannelId, candidate: Link) -> bool {
        if self.busy_elsewhere(channel, candidate) {
            scream_obs::counter_add("ledger.channel.reject_radio", 1);
            return false;
        }
        self.channels[channel.index()].can_add(candidate)
    }

    fn assign(&mut self, channel: ChannelId, link: Link) {
        ChannelSlotLedger::assign(self, channel, link);
    }

    /// One [`assign`](ChannelSlotLedger::assign) per link, through
    /// [`SlotLedger::assign_all`].
    fn assign_all(&mut self, channel: ChannelId, links: &[Link]) {
        if links.iter().any(|&link| self.busy_elsewhere(channel, link)) {
            self.cross_channel_disjoint = false;
        }
        self.channels[channel.index()].assign_all(links);
    }

    fn channel_feasible(&self, channel: ChannelId) -> bool {
        self.channel(channel).slot_feasible()
    }

    /// Empties every channel in O(k) without releasing any buffer,
    /// mirroring [`SlotLedger::clear`].
    fn clear(&mut self) {
        self.channels.iter_mut().for_each(SlotLedger::clear);
        self.cross_channel_disjoint = true;
    }

    fn links(&self, channel: ChannelId) -> &[Link] {
        self.channels[channel.index()].links()
    }

    /// O(C) for the common negative answer, via each channel's
    /// `SlotLedger::contains` screen.
    fn contains_link(&self, link: Link) -> bool {
        self.channels.iter().any(|l| l.contains(link))
    }

    /// Whether every channel surely refuses (`SlotLedger::surely_refuses`)
    /// `candidate`.
    fn surely_refuses(&self, candidate: Link) -> bool {
        self.channels.iter().all(|l| l.surely_refuses(candidate))
    }

    /// Whether every channel's refusal screen is closed
    /// (`SlotLedger::closed`).
    fn closed(&self) -> bool {
        self.channels.iter().all(SlotLedger::closed)
    }
}

impl RadioEnvironment {
    /// Opens an empty [`ChannelSlotLedger`] with one [`SlotLedger`] per
    /// configured channel (see [`RadioConfig::channel_count`]).
    ///
    /// [`RadioConfig::channel_count`]: crate::radio::RadioConfig::channel_count
    pub fn open_channel_ledger(&self) -> ChannelSlotLedger<'_> {
        ChannelSlotLedger::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::PropagationModel;
    use crate::radio::RadioConfig;
    use crate::units::{Dbm, Meters, Mw};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use scream_topology::{Deployment, GridDeployment, Point2, Rect, UniformDeployment};

    /// `count` nodes 20 dBm `spacing` m apart on a line, α = 3, β = `beta_db`,
    /// `channels` orthogonal channels.
    fn line_env_at(count: usize, spacing: f64, beta_db: f64, channels: usize) -> RadioEnvironment {
        let positions: Vec<Point2> = (0..count)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect();
        let d = Deployment::from_positions(&positions, 20.0, Rect::square(spacing * count as f64))
            .unwrap();
        RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(
                RadioConfig::mesh_default()
                    .with_sinr_threshold_db(beta_db)
                    .with_channel_count(channels),
            )
            .build(&d)
    }

    /// [`line_env_at`] at the mesh default β = 10 dB.
    fn line_env(count: usize, spacing: f64, channels: usize) -> RadioEnvironment {
        line_env_at(count, spacing, 10.0, channels)
    }

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    /// Each link's two-way handshake in a slot holding all of `links`, read
    /// off the sums of one exact fill — the paper's definition, no probe.
    fn handshakes(env: &RadioEnvironment, links: &[Link]) -> Vec<bool> {
        let mut filled = SlotLedger::exact(env);
        filled.assign_all(links);
        filled
            .slack
            .iter()
            .map(|slack| slack.iter().all(|&s| s >= 0))
            .collect()
    }

    /// Whether `slot` plus `candidate` is a feasible slot, by one exact fill.
    fn feasible_with(env: &RadioEnvironment, slot: &[Link], candidate: Link) -> bool {
        let mut filled = SlotLedger::exact(env);
        filled.assign_all(slot);
        filled.assign(candidate);
        filled.slot_feasible()
    }

    /// `fx` is the floor of the exactly scaled float on every binade it can
    /// represent (the reference is the `as i128` libcall), saturates beyond
    /// them, never lets a non-finite value through as an ordinary number,
    /// and is monotone.
    #[test]
    fn fixed_point_is_the_floor_of_the_scaled_float_and_saturates() {
        let (scale, limit) = (2f64.powi(FX_FRACTION_BITS), 2f64.powi(127));
        let mut rng = ChaCha8Rng::seed_from_u64(0xf1);
        let mut values = Vec::new();
        for _ in 0..50_000 {
            let binade = 2f64.powi(rng.gen_range(-1074..40));
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let x: f64 = sign * binade * rng.gen_range(1.0..2.0);
            let reference = (x * scale).floor();
            if reference.abs() < limit {
                assert_eq!(fx(x), reference as i128, "{x:e}");
            } else {
                assert_eq!(fx(x), if x > 0.0 { i128::MAX } else { i128::MIN }, "{x:e}");
            }
            values.push(x);
        }
        let edge = 2f64.powi(127 - FX_FRACTION_BITS);
        assert_eq!(fx(edge), i128::MAX);
        assert_eq!(
            fx(edge * (1.0 - f64::EPSILON / 2.0)),
            i128::MAX - (1 << 74) + 1
        );
        assert_eq!(fx(-edge), i128::MIN);
        assert_eq!(fx(f64::MIN_POSITIVE / 4.0), 0);
        assert_eq!(fx(-f64::MIN_POSITIVE / 4.0), -1);
        assert_eq!([fx(0.0), fx(-0.0)], [0, 0]);
        assert_eq!([fx(f64::INFINITY), fx(f64::NAN)], [i128::MAX; 2]);
        assert_eq!(fx(f64::NEG_INFINITY), i128::MIN);
        assert_eq!(
            [cap(f64::NAN, 10.0, 0), cap(f64::INFINITY, 10.0, 0)],
            [i128::MIN; 2]
        );
        values.sort_by(f64::total_cmp);
        assert!(values.windows(2).all(|w| fx(w[0]) <= fx(w[1])));
    }

    /// Hostile links get a verdict, not a panic or an overflow: a node the
    /// environment lacks is never free, its link's slack is `i128::MIN`
    /// (as transmitter or receiver), and a co-located transmitter loud
    /// enough to saturate the fixed point breaks its victim — on dense and
    /// streamed gains, pruned or exact.
    #[test]
    fn unknown_nodes_and_saturating_terms_reject_without_panicking() {
        // The victim 0 → 1; node 2 at the victim's receiver, at 190 dBm;
        // 4 → 5 a clean link 1 km off.
        let nodes = [(0.0, 20.0), (30.0, 20.0), (30.0, 190.0), (60.0, 20.0)]
            .into_iter()
            .chain([(1_000.0, 20.0), (1_030.0, 20.0)])
            .enumerate()
            .map(|(i, (x, dbm))| {
                scream_topology::NodeInfo::new(
                    NodeId::new(i as u32),
                    Point2::new(x, 0.0),
                    Dbm::new(dbm),
                )
            })
            .collect::<Vec<_>>();
        let d = Deployment::from_nodes(nodes, Rect::square(1.0)).unwrap();
        let dense = RadioEnvironment::builder().build(&d);
        let streamed = RadioEnvironment::builder().streamed_gains().build(&d);
        for env in [&dense, &streamed] {
            assert_eq!(
                fx(env.received_mw(NodeId::new(2), NodeId::new(1))),
                i128::MAX
            );
            assert!(env.received_mw(NodeId::new(0), NodeId::new(9)).is_nan());
            for mode in [PruningMode::Auto, PruningMode::Forced, PruningMode::Off] {
                let mut ledger = SlotLedger::with_pruning(env, mode);
                ledger.assign(link(0, 1));
                assert!(ledger.slot_feasible() && ledger.can_add(link(4, 5)));
                assert!(!ledger.can_add(link(2, 3)), "{mode:?}");
                for unknown in [link(9, 4), link(4, 9), link(9, 8)] {
                    assert!(!ledger.can_add(unknown) && !ledger.surely_refuses(unknown));
                }
                ledger.assign(link(2, 3));
                assert!(!ledger.slot_feasible() && !ledger.can_add(link(4, 5)));
                assert_eq!(ledger.margins().len(), 2);

                ledger.clear();
                ledger.assign(link(4, 9));
                assert_eq!(ledger.slack, [[i128::MIN; 2]]);
                assert!(!ledger.slot_feasible() && !ledger.all_links_ok());
                assert!(!ledger.can_add(link(0, 1)) && ledger.surely_refuses(link(0, 1)));
                ledger.assign(link(0, 1));
                assert!(ledger
                    .margins()
                    .iter()
                    .all(|m| m.link == link(0, 1) || !m.ok()));

                let mut set = ChannelSlotLedger::with_pruning(env, mode);
                set.assign(ChannelId::ZERO, link(0, 1));
                let claims = set.probe_claims(&[link(2, 3), link(9, 4)]);
                assert!(!claims.existing_ok && claims.assignments == [None, None]);
            }
        }
    }

    #[test]
    fn can_add_matches_from_scratch_on_a_line() {
        let env = line_env(8, 200.0, 1);
        let mut ledger = SlotLedger::new(&env);
        let slot = [link(0, 1)];
        ledger.assign(slot[0]);
        for (candidate, expected) in [
            (link(6, 7), true),
            (link(2, 3), false),
            (link(1, 2), false),
            (link(4, 4), false),
        ] {
            assert_eq!(ledger.can_add(candidate), expected, "{candidate}");
            assert_eq!(
                expected,
                feasible_with(&env, &slot, candidate),
                "{candidate}"
            );
        }
    }

    #[test]
    fn incremental_assign_matches_slot_feasible() {
        // Four hops at 220 m is too close: every link's data sub-slot hears
        // the nearer head 660 m off, and the verdict says so.
        let env = line_env(10, 220.0, 1);
        let links = [link(0, 1), link(4, 5), link(8, 9)];
        let mut ledger = SlotLedger::new(&env);
        links.iter().for_each(|&l| ledger.assign(l));
        let by_margin: Vec<bool> = ledger.margins().iter().map(LinkSinrMargin::ok).collect();
        assert_eq!(by_margin, [false; 3]);
        assert_eq!(handshakes(&env, &links), by_margin);
        assert!(!ledger.slot_feasible());
        assert_eq!(ledger.len(), 3);
        assert!(ledger.contains(link(4, 5)));
        assert!(!ledger.is_empty());
    }

    #[test]
    fn shared_endpoints_are_rejected_by_can_add_and_tracked_by_assign() {
        let env = line_env(6, 150.0, 1);
        let mut ledger = SlotLedger::new(&env);
        ledger.assign(link(0, 1));
        assert!(
            !ledger.can_add(link(1, 2)),
            "shared endpoint must be rejected"
        );
        assert!(!ledger.endpoints_free(link(1, 2)));
        // Force-assigning it anyway marks the slot non-disjoint.
        ledger.assign(link(1, 2));
        assert!(!ledger.slot_feasible());
    }

    #[test]
    fn self_links_are_rejected() {
        let env = line_env(4, 150.0, 1);
        let mut ledger = SlotLedger::new(&env);
        assert!(!ledger.can_add(link(2, 2)));
        ledger.assign(link(2, 2));
        assert!(!ledger.slot_feasible());
    }

    #[test]
    fn solo_infeasible_link_fails_even_in_an_empty_slot() {
        // Two nodes 100 km apart: not decodable even without interference.
        let env = line_env(2, 100_000.0, 1);
        let ledger = SlotLedger::new(&env);
        assert!(!ledger.can_add(link(0, 1)));
        let forced = SlotLedger::with_links(&env, &[link(0, 1)]);
        assert!(!forced.all_links_ok());
        let margins = forced.margins();
        assert_eq!(margins.len(), 1);
        assert!(margins[0].data_margin_db < Db::new(0.0));
        assert!(!margins[0].ok());
    }

    #[test]
    fn probe_matches_handshake_ok_for_each_participant() {
        // The runtime's batched probe against one exact fill of the assigned
        // and tentative links together: a tentative set that breaks (0, 1)
        // is vetoed, one that does not is priced link by link.
        let env = line_env(12, 180.0, 1);
        let assigned = [link(0, 1), link(6, 7)];
        let ledger = SlotLedger::with_links(&env, &assigned);
        for (tentative, vetoed) in [
            (vec![link(3, 4), link(10, 11)], true),
            (vec![link(11, 10)], false),
        ] {
            let participants: Vec<Link> = assigned.iter().chain(&tentative).copied().collect();
            let ok = handshakes(&env, &participants);
            let (existing, claims) = ok.split_at(assigned.len());
            assert_eq!(existing.iter().all(|&ok| ok), !vetoed, "{tentative:?}");
            assert_eq!(
                ledger.probe_unless_vetoed(&tentative),
                (!vetoed).then(|| claims.to_vec()),
                "{tentative:?}"
            );
        }
    }

    #[test]
    fn probe_claims_screens_half_duplex_conflicts_raw_probe_does_not() {
        // Chain 2 -> 1 -> 0 at a low SINR threshold: the exclusion rule skips
        // the shared node 1 in both handshake directions, so the SINR check
        // alone passes the claim — exactly the blind spot probe_claims closes.
        let env = line_env_at(6, 150.0, 6.0, 1);
        let mut ledger = ChannelSlotLedger::new(&env);
        ledger.assign(ChannelId::ZERO, link(2, 1));
        let chained = link(1, 0);
        assert_eq!(
            handshakes(&env, &[link(2, 1), chained]),
            [true, true],
            "the SINR check admits the chain"
        );
        assert_eq!(
            ledger.probe_claims(&[chained]).assignments,
            vec![None],
            "probe_claims must reject the endpoint-sharing claim"
        );
        // Tentative links sharing an endpoint with each other both fail, and
        // self-link claims are screened too.
        let claims = ledger.probe_claims(&[link(4, 3), link(3, 5), link(3, 3)]);
        assert_eq!(claims.assignments, vec![None, None, None]);
        // A genuinely free claim still passes through probe_claims.
        let free = ledger.probe_claims(&[link(4, 5)]);
        assert_eq!(free.assignments, vec![Some(ChannelId::ZERO)]);
        assert!(free.existing_ok);
    }

    #[test]
    fn probe_with_empty_tentative_reports_current_slot_health() {
        let env = line_env(8, 200.0, 1);
        let ledger = SlotLedger::with_links(&env, &[link(0, 1), link(6, 7)]);
        assert!(ledger.all_links_ok());
        assert_eq!(ledger.probe_unless_vetoed(&[]), Some(Vec::new()));
        let mut set = ChannelSlotLedger::new(&env);
        set.assign_all(ChannelId::ZERO, ledger.links());
        let probe = set.probe_claims(&[]);
        assert!(probe.existing_ok);
        assert!(probe.assignments.is_empty());
    }

    #[test]
    fn margins_are_positive_for_feasible_slots_and_displayable() {
        let env = line_env(8, 200.0, 1);
        let ledger = SlotLedger::with_links(&env, &[link(0, 1), link(6, 7)]);
        assert!(ledger.slot_feasible());
        for margin in ledger.margins() {
            assert!(margin.ok(), "{margin}");
            assert!(margin.to_string().contains("dB"));
        }
    }

    #[test]
    fn cleared_ledger_behaves_like_a_fresh_one() {
        let env = line_env(8, 200.0, 1);
        let mut reused = SlotLedger::new(&env);
        // Fill with a slot (including a force-assigned endpoint conflict),
        // clear, then replay a different slot; every observable must match a
        // fresh ledger's.
        reused.assign(link(0, 1));
        reused.assign(link(1, 2));
        assert!(!reused.slot_feasible());
        // (0, 1) hears node 1 transmit for (1, 2): the slot is broken, hence
        // closed, and the cached screen says so until `clear` drops it.
        assert!(reused.surely_refuses(link(4, 5)));
        assert!(reused.refusal.get().is_some());
        reused.clear();
        assert!(reused.is_empty());
        assert!(reused.slot_feasible());
        assert!(reused.endpoints_free(link(1, 2)));
        assert_eq!(reused.refusal.get(), None);
        assert!(!reused.surely_refuses(link(4, 5)));

        let mut fresh = SlotLedger::new(&env);
        for l in [link(6, 7), link(2, 3)] {
            assert_eq!(reused.can_add(l), fresh.can_add(l));
            assert_eq!(reused.surely_refuses(l), fresh.surely_refuses(l));
            reused.assign(l);
            fresh.assign(l);
            assert_eq!(reused.derive_refusal(), fresh.derive_refusal());
        }
        assert_eq!(reused.links(), fresh.links());
        assert_eq!(reused.slot_feasible(), fresh.slot_feasible());
        assert_eq!(reused.margins(), fresh.margins());
    }

    #[test]
    fn single_channel_ledger_set_degenerates_to_the_plain_ledger() {
        // With one channel the set must agree decision-for-decision with a
        // plain SlotLedger on the same assignment sequence.
        let env = line_env(10, 200.0, 1);
        let mut set = ChannelSlotLedger::new(&env);
        let mut plain = SlotLedger::new(&env);
        for candidate in [link(0, 1), link(4, 5), link(1, 2), link(8, 9), link(3, 3)] {
            assert_eq!(
                set.can_add(ChannelId::ZERO, candidate),
                plain.can_add(candidate),
                "single-channel divergence for {candidate}"
            );
            if set.can_add(ChannelId::ZERO, candidate) {
                set.assign(ChannelId::ZERO, candidate);
                plain.assign(candidate);
            }
            assert_eq!(set.slot_feasible(), plain.slot_feasible());
        }
        assert_eq!(set.links(ChannelId::ZERO), plain.links());
        assert_eq!(set.assignments().count(), plain.len());
        assert_eq!(set.margins(ChannelId::ZERO), plain.margins());
    }

    #[test]
    fn channels_are_orthogonal_but_share_node_radios() {
        // (0,1) and (2,3) are too close to share a single channel, yet they
        // coexist on different channels; (1,2) touches busy nodes and is
        // rejected on *every* channel (one radio per node).
        let env = line_env(8, 200.0, 1);
        assert!(!feasible_with(&env, &[link(0, 1)], link(2, 3)));
        let mut set = env.open_channel_ledger();
        assert_eq!(set.channel_count(), 1, "mesh default is single-channel");

        let env2 = line_env(8, 200.0, 2);
        let mut set2 = ChannelSlotLedger::new(&env2);
        assert!(set2.can_add(ChannelId::new(0), link(0, 1)));
        set2.assign(ChannelId::new(0), link(0, 1));
        assert!(
            !set2.can_add(ChannelId::new(0), link(2, 3)),
            "same channel keeps the SINR conflict"
        );
        assert!(
            set2.can_add(ChannelId::new(1), link(2, 3)),
            "the orthogonal channel removes it"
        );
        set2.assign(ChannelId::new(1), link(2, 3));
        assert!(set2.slot_feasible());
        assert!(set2.contains_link(link(2, 3)));
        assert!(!set2.endpoints_free(link(1, 4)));
        assert!(
            !set2.can_add(ChannelId::new(1), link(1, 4)),
            "node 1 is already busy on channel 0"
        );
        assert_eq!(set2.assignments().count(), 2);
        assert_eq!(
            set2.assignments().collect::<Vec<_>>(),
            vec![
                (ChannelId::new(0), link(0, 1)),
                (ChannelId::new(1), link(2, 3))
            ]
        );
        set.clear();
    }

    #[test]
    fn force_assigned_cross_channel_conflicts_are_tracked_and_cleared() {
        let env = line_env(8, 200.0, 2);
        let mut set = ChannelSlotLedger::new(&env);
        set.assign(ChannelId::new(0), link(0, 1));
        set.assign(ChannelId::new(1), link(1, 2));
        assert!(
            !set.slot_feasible(),
            "node 1 on two channels breaks half-duplex"
        );
        assert!(set.channel(ChannelId::new(0)).slot_feasible());
        assert!(set.channel(ChannelId::new(1)).slot_feasible());
        // clear() restores a fresh, reusable set.
        set.clear();
        assert_eq!(set.assignments().next(), None);
        assert!(set.slot_feasible());
        assert!(set.endpoints_free(link(1, 2)));
        let mut fresh = ChannelSlotLedger::new(&env);
        for (c, l) in [
            (ChannelId::new(1), link(0, 1)),
            (ChannelId::new(0), link(6, 7)),
        ] {
            assert_eq!(set.can_add(c, l), fresh.can_add(c, l));
            set.assign(c, l);
            fresh.assign(c, l);
        }
        assert_eq!(set.slot_feasible(), fresh.slot_feasible());
        assert_eq!(
            set.assignments().collect::<Vec<_>>(),
            fresh.assignments().collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_channel_probe_claims_degenerates_to_the_plain_probe() {
        // On one channel the claim check is the plain ledger's SINR probe
        // plus the half-duplex screen (spelled out here) with the veto folded
        // into the claim — for passing, SINR-failing, half-duplex-failing and
        // self-link claims.
        let env = line_env_at(8, 150.0, 6.0, 1);
        let mut set = ChannelSlotLedger::new(&env);
        set.assign(ChannelId::ZERO, link(2, 1));
        let plain = SlotLedger::with_links(&env, &[link(2, 1)]);
        for tentative in [
            vec![link(1, 0)],                         // endpoint-sharing chain
            vec![link(4, 5)],                         // clean claim
            vec![link(4, 5), link(5, 6)],             // mutual endpoint sharing
            vec![link(4, 5), link(7, 6), link(3, 3)], // mixed with a self-link
        ] {
            let multi = set.probe_claims(&tentative);
            let single = plain.probe_unless_vetoed(&tentative);
            assert_eq!(multi.existing_ok, single.is_some(), "{tentative:?}");
            for (i, &claim) in tentative.iter().enumerate() {
                let half_duplex_ok = claim.head != claim.tail
                    && plain.endpoints_free(claim)
                    && tentative
                        .iter()
                        .enumerate()
                        .all(|(j, other)| j == i || !other.shares_endpoint(&claim));
                let admitted = single.as_ref().is_some_and(|ok| ok[i]) && half_duplex_ok;
                let expected = admitted.then_some(ChannelId::ZERO);
                assert_eq!(
                    multi.assignments[i], expected,
                    "claim {i} diverged for {tentative:?}"
                );
            }
        }
    }

    #[test]
    fn probe_claims_first_fits_across_channels() {
        // (0,1) is on channel 0; (2,3) conflicts with it under SINR, so its
        // claim carries to channel 1; (1,4) touches busy node 1 and claims
        // nothing on any channel.
        let env = line_env(8, 200.0, 2);
        assert!(!feasible_with(&env, &[link(0, 1)], link(2, 3)));
        let mut set = ChannelSlotLedger::new(&env);
        set.assign(ChannelId::ZERO, link(0, 1));
        let probe = set.probe_claims(&[link(2, 3)]);
        assert_eq!(probe.assignments, vec![Some(ChannelId::new(1))]);
        // A claim touching a busy node gets no channel at all.
        assert_eq!(set.probe_claims(&[link(1, 4)]).assignments, vec![None]);
        // Claiming the assignment keeps the multi-channel slot feasible.
        set.assign(ChannelId::new(1), link(2, 3));
        assert!(set.slot_feasible());
        // A claim that fits channel 0 takes it even when later channels are
        // also free (first-fit order), and two endpoint-sharing claims both
        // fail on every channel (one radio per node).
        let probe = set.probe_claims(&[link(6, 7), link(5, 6)]);
        assert_eq!(probe.assignments, vec![None, None]);
        let probe = set.probe_claims(&[link(6, 7)]);
        assert_eq!(probe.assignments, vec![Some(ChannelId::ZERO)]);
        assert!(probe.existing_ok);
    }

    #[test]
    fn probe_claims_reports_unhealthy_channels_even_with_no_open_claims() {
        // A force-assigned link that cannot complete its handshake even
        // undisturbed (100 km apart) must surface through existing_ok — on
        // an empty tentative set (mirroring the plain ledger's probe) and
        // when every claim resolves on an earlier channel.
        let env = line_env(4, 100_000.0, 1);
        let mut set = ChannelSlotLedger::new(&env);
        set.assign(ChannelId::ZERO, link(0, 1));
        let plain = SlotLedger::with_links(&env, &[link(0, 1)]);
        assert_eq!(plain.probe_unless_vetoed(&[]), None);
        assert!(
            !set.probe_claims(&[]).existing_ok,
            "the empty-claim probe must still check the assigned links"
        );

        // Claims resolving on an early channel must not mask a later
        // channel's unhealthy force-assigned links: (0,1) and (2,3) disturb
        // each other on channel 1, the clean claim (6,7) takes channel 0,
        // and channel 1's sub-phase still raises its veto.
        let env = line_env(8, 200.0, 2);
        let mut set2 = ChannelSlotLedger::new(&env);
        set2.assign(ChannelId::new(1), link(0, 1));
        set2.assign(ChannelId::new(1), link(2, 3));
        assert!(!set2.channel(ChannelId::new(1)).all_links_ok());
        let probe = set2.probe_claims(&[link(6, 7)]);
        assert_eq!(probe.assignments, vec![Some(ChannelId::ZERO)]);
        assert!(
            !probe.existing_ok,
            "channel 1's broken links must veto even after all claims resolved"
        );
    }

    #[test]
    fn probe_claims_vetoes_a_disturbed_channel_but_not_the_others() {
        // Put (2,1) on channel 0 of a low-β environment; the tentative (4,3)
        // disturbs it there (veto on channel 0) yet claims channel 1, where
        // nothing is scheduled.
        let env = line_env_at(6, 150.0, 6.0, 2);
        let mut set = ChannelSlotLedger::new(&env);
        set.assign(ChannelId::ZERO, link(2, 1));
        assert!(
            !handshakes(&env, &[link(2, 1), link(4, 3)])[0],
            "the scenario needs (4,3) to disturb channel 0"
        );
        let probe = set.probe_claims(&[link(4, 3)]);
        assert!(!probe.existing_ok, "the channel-0 veto must be reported");
        assert_eq!(
            probe.assignments,
            vec![Some(ChannelId::new(1))],
            "the claim carries past the vetoed channel"
        );
    }

    #[test]
    fn pruned_and_exact_ledgers_agree_decision_for_decision() {
        // Dense 8x8 grid: adjacent links conflict, distant ones coexist, so
        // the probe stream hits accepts, rejects and borderline fallbacks.
        // The grid fits inside one cutoff disc, so pruning is forced.
        let d = GridDeployment::new(8, 8, 170.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let mut pruned = SlotLedger::pruned(&env);
        let mut exact = SlotLedger::exact(&env);
        assert!(pruned.is_pruned());
        assert!(!exact.is_pruned());
        assert!(
            !SlotLedger::new(&env).is_pruned(),
            "an instance narrower than the cutoff should skip the index"
        );
        for row in 0..8u32 {
            for col in 0..7u32 {
                let candidate = link(row * 8 + col, row * 8 + col + 1);
                let verdict = pruned.can_add(candidate);
                assert_eq!(
                    verdict,
                    exact.can_add(candidate),
                    "pruned/exact divergence on {candidate}"
                );
                if verdict {
                    pruned.assign(candidate);
                    exact.assign(candidate);
                }
            }
        }
        assert!(!pruned.is_empty(), "scenario admitted no links at all");
        // Assign stays exact in both, so the cached state — and hence the
        // margins — are bitwise identical, not merely close.
        assert_eq!(pruned.links(), exact.links());
        assert_eq!(pruned.margins(), exact.margins());
        assert_eq!(pruned.slot_feasible(), exact.slot_feasible());
        // The clear lifecycle preserves the equivalence.
        pruned.clear();
        exact.clear();
        for candidate in [link(0, 1), link(18, 19), link(1, 2), link(63, 62)] {
            assert_eq!(pruned.can_add(candidate), exact.can_add(candidate));
            pruned.assign(candidate);
            exact.assign(candidate);
        }
        assert_eq!(pruned.margins(), exact.margins());
    }

    /// The accept verdict written out as the full conjunction — endpoint
    /// screen, the candidate's own handshake, then every assigned link in
    /// both directions — with neither the binding-victim screen nor the
    /// spatial scans in the way, and without touching the memo.
    fn reference_can_add(ledger: &SlotLedger<'_>, candidate: Link) -> bool {
        if candidate.head == candidate.tail || !ledger.endpoints_free(candidate) {
            return false;
        }
        if !ledger.candidate_handshake_exact(candidate) {
            return false;
        }
        ledger.links.iter().enumerate().all(|(i, &link)| {
            DIRS.iter().all(|&dir| {
                let (d, extra) = (dir as usize, term(ledger.env, dir, candidate, link));
                ledger.slack[i][d].saturating_sub(extra.unwrap_or(0)) >= 0
            })
        })
    }

    /// A jittered 120 × 3 lattice with streamed gains, 21.5 m hops, node `i`
    /// transmitting at 0 dBm + `spread_db` × (−1, 0, +1 by `i mod 3`).
    fn jittered_lattice(rng: &mut ChaCha8Rng, spread_db: f64, channels: usize) -> RadioEnvironment {
        let (columns, rows, step_m) = (120usize, 3usize, 21.5);
        let nodes = (0..columns * rows)
            .map(|i| {
                let (dx, dy): (f64, f64) = (rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1));
                let position = Point2::new(
                    ((i % columns) as f64 + 0.5 + dx) * step_m,
                    ((i / columns) as f64 + 0.5 + dy) * step_m,
                );
                let power_dbm = spread_db * ((i % 3) as f64 - 1.0);
                scream_topology::NodeInfo::new(NodeId::new(i as u32), position, Dbm::new(power_dbm))
            })
            .collect();
        let region = Rect::new(
            Point2::new(0.0, 0.0),
            Point2::new(columns as f64 * step_m, rows as f64 * step_m),
        );
        let d = Deployment::from_nodes(nodes, region).unwrap();
        RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(RadioConfig::mesh_default().with_channel_count(channels))
            .streamed_gains()
            .build(&d)
    }

    /// Seeded worlds for the screen's property tests: even seeds draw a
    /// jittered 120 × 3 lattice with streamed gains (0 dBm over 21.5 m hops
    /// keeps the 2.15 km far-field cutoff inside its 2.6 km extent, so
    /// `SlotLedger::new` prunes), odd seeds a shadowed uniform mesh with a
    /// dense gain matrix (narrower than its cutoff, so `new` probes exactly);
    /// `channels` orthogonal channels either way.
    fn seeded_world(seed: u64, channels: usize) -> RadioEnvironment {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        if seed.is_multiple_of(2) {
            jittered_lattice(&mut rng, 0.0, channels)
        } else {
            let nodes = rng.gen_range(12usize..=40);
            let d = UniformDeployment::new(nodes, 150.0 * (nodes as f64).sqrt()).build(&mut rng);
            RadioEnvironment::builder()
                .propagation(PropagationModel::log_distance(3.0))
                .shadowing(rng.gen_range(0.0..8.0), seed)
                .config(
                    RadioConfig::mesh_default()
                        .with_sinr_threshold_db(rng.gen_range(4.0..12.0))
                        .with_channel_count(channels),
                )
                .build(&d)
        }
    }

    /// A random link between two distinct nodes, short hops preferred so a
    /// fair share of the draws is decodable at all.
    fn draw_link(env: &RadioEnvironment, rng: &mut ChaCha8Rng) -> Link {
        let n = env.node_count() as u32;
        let head = rng.gen_range(0..n);
        let hop = if rng.gen_bool(0.7) {
            1
        } else {
            rng.gen_range(1..n)
        };
        link(head, (head + hop) % n)
    }

    /// Probes `probes` random candidates, asserting each verdict against the
    /// reference conjunction and assigning the accepted ones.
    fn probe_and_fill(
        ledger: &mut SlotLedger<'_>,
        rng: &mut ChaCha8Rng,
        probes: usize,
        what: &str,
    ) {
        for _ in 0..probes {
            let candidate = draw_link(ledger.env, rng);
            let verdict = ledger.can_add(candidate);
            assert_eq!(
                verdict,
                reference_can_add(ledger, candidate),
                "{what}: screen changed the verdict on {candidate} against {:?}",
                ledger.links()
            );
            if verdict {
                ledger.assign(candidate);
            }
        }
    }

    #[test]
    fn binding_victim_screen_never_changes_a_verdict() {
        // `new`, `pruned` and `exact`, by the mode each one opens with.
        let constructors = [
            ("new", PruningMode::Auto),
            ("pruned", PruningMode::Forced),
            ("exact", PruningMode::Off),
        ];
        let mut pruned_by_default = 0;
        for seed in 0..40u64 {
            let env = seeded_world(seed, 1);
            for (name, mode) in constructors {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
                let mut ledger = SlotLedger::with_pruning(&env, mode);
                pruned_by_default += usize::from(name == "new" && ledger.is_pruned());
                probe_and_fill(&mut ledger, &mut rng, 120, name);
                assert!(!ledger.is_empty(), "{name}/{seed}: nothing was admitted");

                // A clone carries the victims and the memo with it.
                let mut cloned = ledger.clone();
                probe_and_fill(&mut cloned, &mut rng, 40, "clone");

                // Force-assign a link some assigned link cannot survive: the
                // slot now holds negative slack, and screen and reference
                // alike must refuse everybody.
                let breaker = (0..400)
                    .map(|_| draw_link(&env, &mut rng))
                    .find(|&l| ledger.endpoints_free(l) && !ledger.can_add(l));
                if let Some(breaker) = breaker {
                    ledger.assign(breaker);
                    if !ledger.all_links_ok() {
                        for _ in 0..40 {
                            let candidate = draw_link(&env, &mut rng);
                            assert!(
                                !ledger.can_add(candidate),
                                "{name}/{seed}: broken slot admitted {candidate}"
                            );
                            assert!(!reference_can_add(&ledger, candidate));
                        }
                    }
                }

                // clear() drops the victims with the links they index; the
                // refilled (shorter, different) slot must never see them.
                ledger.clear();
                assert_eq!(ledger.binding, [None; 2]);
                assert_eq!(ledger.failed_memo.get(), None);
                probe_and_fill(&mut ledger, &mut rng, 60, "refill");
            }
        }
        assert_eq!(
            pruned_by_default, 20,
            "every lattice world must exercise the auto-pruned regime"
        );
    }

    #[test]
    fn binding_victim_screen_is_verdict_neutral_on_two_channels() {
        for seed in 0..20u64 {
            let env = seeded_world(seed, 2);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc2);
            let mut set = ChannelSlotLedger::new(&env);
            for _ in 0..200 {
                let candidate = draw_link(&env, &mut rng);
                let channel = ChannelId::new(rng.gen_range(0..2u16));
                let other = ChannelId::new(1 - channel.index() as u16);
                let radio_free = set
                    .links(other)
                    .iter()
                    .all(|l| !l.shares_endpoint(&candidate));
                let verdict = set.can_add(channel, candidate);
                assert_eq!(
                    verdict,
                    radio_free && reference_can_add(set.channel(channel), candidate),
                    "seed {seed}: {candidate} on {channel}"
                );
                if verdict {
                    set.assign(channel, candidate);
                }
            }
            assert!(
                set.assignments().count() > 1,
                "seed {seed}: nothing was admitted"
            );
        }
    }

    /// Asks both levels of the refusal screen about `draws` random
    /// candidates and holds every `true` against the probe it stands in for;
    /// returns how many times a channel's screen said `true`.
    fn assert_refusals_are_sound(
        set: &ChannelSlotLedger<'_>,
        rng: &mut ChaCha8Rng,
        draws: usize,
    ) -> usize {
        let channels = || (0..set.channel_count()).map(|c| ChannelId::new(c as u16));
        let mut refused = 0;
        for _ in 0..draws {
            let candidate = draw_link(set.channels[0].env, rng);
            for ch in channels() {
                let ledger = set.channel(ch);
                if ledger.surely_refuses(candidate) {
                    refused += 1;
                    assert!(
                        !ledger.can_add(candidate),
                        "{ch} refused {candidate} unasked but admits it: {:?}",
                        ledger.links()
                    );
                }
            }
            if set.surely_refuses(candidate) {
                for ch in channels() {
                    assert!(!set.can_add(ch, candidate), "{candidate} on {ch}");
                }
            }
        }
        refused
    }

    #[test]
    fn refusal_screen_only_refuses_what_every_channel_refuses() {
        // The seeded worlds (streamed lattices and shadowed dense meshes),
        // plus lattices at homogeneous and ± 3 dB power: the disc is sized
        // from the *weakest* transmitter, which the latter tells apart.
        let world = |w: u64, channels: usize| match w.checked_sub(16) {
            None => seeded_world(w, channels),
            Some(l) => {
                let spread = [0.0, 3.0][l as usize];
                jittered_lattice(&mut ChaCha8Rng::seed_from_u64(7), spread, channels)
            }
        };
        for w in 0..18u64 {
            for channel_count in [1usize, 2] {
                let env = &world(w, channel_count);
                for mode in [PruningMode::Forced, PruningMode::Off] {
                    let what = format!("world {w}, C = {channel_count}, {mode:?}");
                    let mut rng = ChaCha8Rng::seed_from_u64(w ^ 0x5c4e);
                    let mut set = ChannelSlotLedger::with_pruning(env, mode);
                    let mut refused = 0;
                    // First-fit a dozen links, questioning the screen after
                    // every assignment.
                    for _ in 0..12 {
                        let placed = (0..400).find_map(|_| {
                            let link = draw_link(env, &mut rng);
                            (0..channel_count as u16)
                                .map(ChannelId::new)
                                .find(|&ch| set.can_add(ch, link))
                                .map(|ch| (ch, link))
                        });
                        let Some((ch, link)) = placed else { break };
                        set.assign(ch, link);
                        refused += assert_refusals_are_sound(&set, &mut rng, 200);
                    }
                    assert!(
                        set.assignments().count() > 1,
                        "{what}: nothing was admitted"
                    );
                    if env.is_streamed() {
                        assert!(refused > 0, "{what}: the screen never fired");
                    }

                    // Break channel 0: negative slack is less than any floor,
                    // so that channel is closed to every pair of nodes.
                    let broken = &mut set.channels[0];
                    let breaker = (0..400)
                        .map(|_| draw_link(env, &mut rng))
                        .find(|&l| broken.endpoints_free(l) && !broken.can_add(l));
                    if let Some(breaker) = breaker {
                        broken.assign(breaker);
                        if !broken.all_links_ok() {
                            for _ in 0..40 {
                                let candidate = draw_link(env, &mut rng);
                                assert!(broken.surely_refuses(candidate), "{what}: {candidate}");
                                assert!(!broken.can_add(candidate));
                            }
                        }
                    }
                    assert_refusals_are_sound(&set, &mut rng, 200);
                }
            }
        }
    }

    /// Everything a `SlotLedger` derives from its assignment history: two
    /// ledgers with equal fingerprints hold the same slacks, victims and
    /// bucket index.
    fn state_fingerprint(ledger: &SlotLedger<'_>) -> String {
        format!(
            "{:?} {:?} {:?} {} {:?} {:?}",
            ledger.links,
            ledger.slack,
            ledger.occupied,
            ledger.disjoint,
            ledger.binding,
            ledger.pruning.as_ref().map(|p| &p.buckets),
        )
    }

    /// A slot's worth of `(channel, link)` entries of the given shape: links
    /// admitted by `can_add` on a scratch set, then — by `shape` — nothing
    /// more (feasible), a refused link appended (infeasible at the last
    /// entry), a refused link in the middle, an endpoint-sharing link, a
    /// self-link, or a link sharing its radios with one on the next channel.
    /// `None` when the draws found no link to break the slot with.
    fn draw_slot(
        env: &RadioEnvironment,
        channel_count: usize,
        rng: &mut ChaCha8Rng,
        shape: usize,
    ) -> Option<Vec<(ChannelId, Link)>> {
        let mut scratch = ChannelSlotLedger::exact(env);
        let mut entries = Vec::new();
        for _ in 0..60 {
            let (ch, l) = (
                ChannelId::new(rng.gen_range(0..channel_count as u16)),
                draw_link(env, rng),
            );
            if scratch.can_add(ch, l) {
                scratch.assign(ch, l);
                entries.push((ch, l));
            }
        }
        let &(some_channel, some_link) = entries.first()?;
        let intruder = match shape {
            0 => return Some(entries),
            // Free endpoints everywhere, yet refused: an SINR failure.
            1 | 2 => (0..400).find_map(|_| {
                let l = draw_link(env, rng);
                let ch = ChannelId::new(rng.gen_range(0..channel_count as u16));
                (scratch.endpoints_free(l) && !scratch.can_add(ch, l)).then_some((ch, l))
            })?,
            3 => (
                some_channel,
                link(some_link.tail.index() as u32, some_link.head.index() as u32),
            ),
            4 => (
                some_channel,
                link(some_link.head.index() as u32, some_link.head.index() as u32),
            ),
            // The same radio on the next channel (the same one when C = 1).
            _ => (
                ChannelId::new((some_channel.index() as u16 + 1) % channel_count as u16),
                link(some_link.tail.index() as u32, some_link.head.index() as u32),
            ),
        };
        let at = if shape == 2 {
            entries.len() / 2
        } else {
            entries.len()
        };
        entries.insert(at, intruder);
        Some(entries)
    }

    /// The worlds, channel counts and ledger kinds the fill tests run over.
    fn fill_cases() -> Vec<(RadioEnvironment, usize, PruningMode)> {
        let mut cases = Vec::new();
        for w in 0..13u64 {
            for channel_count in [1usize, 2] {
                let env = match w {
                    12 => jittered_lattice(&mut ChaCha8Rng::seed_from_u64(11), 3.0, channel_count),
                    _ => seeded_world(w, channel_count),
                };
                for mode in [PruningMode::Auto, PruningMode::Forced, PruningMode::Off] {
                    cases.push((env.clone(), channel_count, mode));
                }
            }
        }
        cases
    }

    #[test]
    fn assign_all_leaves_the_state_of_one_assign_per_link() {
        let mut infeasible = 0;
        for (case, (env, channel_count, mode)) in fill_cases().into_iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(case as u64 ^ 0xa11);
            let mut one_by_one = ChannelSlotLedger::with_pruning(&env, mode);
            let mut at_once = ChannelSlotLedger::with_pruning(&env, mode);
            // Every shape, twice through the same two ledger sets: `clear`
            // and reuse must not tell the two fill paths apart either.
            for shape in (0..6).chain(0..6) {
                let Some(entries) = draw_slot(&env, channel_count, &mut rng, shape) else {
                    continue;
                };
                let what = format!("case {case}, C = {channel_count}, {mode:?}, shape {shape}");
                one_by_one.clear();
                at_once.clear();
                for &(ch, l) in &entries {
                    one_by_one.assign(ch, l);
                }
                // Entries arrive as drawn, not channel-major: fill each
                // same-channel stretch at once, as a run split does.
                for stretch in entries.chunk_by(|a, b| a.0 == b.0) {
                    let links: Vec<Link> = stretch.iter().map(|&(_, l)| l).collect();
                    at_once.assign_all(stretch[0].0, &links);
                }
                assert_eq!(
                    one_by_one.cross_channel_disjoint, at_once.cross_channel_disjoint,
                    "{what}"
                );
                assert_eq!(
                    one_by_one.slot_feasible(),
                    at_once.slot_feasible(),
                    "{what}"
                );
                infeasible += usize::from(!at_once.slot_feasible());
                for ch in (0..channel_count as u16).map(ChannelId::new) {
                    let (a, b) = (one_by_one.channel(ch), at_once.channel(ch));
                    assert_eq!(state_fingerprint(a), state_fingerprint(b), "{what}, {ch}");
                    assert_eq!(a.slot_feasible(), b.slot_feasible(), "{what}, {ch}");
                    let bits = |m: &LinkSinrMargin| {
                        (
                            m.link,
                            m.data_margin_db.get().to_bits(),
                            m.ack_margin_db.get().to_bits(),
                        )
                    };
                    let margin_bits = |ledger: &SlotLedger<'_>| -> Vec<(Link, u64, u64)> {
                        ledger.margins().iter().map(bits).collect()
                    };
                    assert_eq!(margin_bits(a), margin_bits(b), "{what}, {ch}");
                    assert_eq!(a.derive_refusal(), b.derive_refusal(), "{what}, {ch}");
                }
                for _ in 0..200 {
                    let candidate = draw_link(&env, &mut rng);
                    assert_eq!(
                        one_by_one.surely_refuses(candidate),
                        at_once.surely_refuses(candidate),
                        "{what}: {candidate}"
                    );
                    for ch in (0..channel_count as u16).map(ChannelId::new) {
                        assert_eq!(
                            one_by_one.can_add(ch, candidate),
                            at_once.can_add(ch, candidate),
                            "{what}: {candidate} on {ch}"
                        );
                    }
                }
            }
        }
        assert!(
            infeasible > 100,
            "only {infeasible} broken slots were drawn"
        );
    }

    #[test]
    fn a_filled_slot_is_feasible_exactly_when_every_link_was_admitted_on_its_way_in() {
        let (mut feasible, mut infeasible) = (0, 0);
        for (case, (env, channel_count, mode)) in fill_cases().into_iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(case as u64 ^ 0xf111);
            let mut probed = ChannelSlotLedger::with_pruning(&env, mode);
            let mut filled = ChannelSlotLedger::with_pruning(&env, mode);
            for shape in 0..6 {
                let Some(mut entries) = draw_slot(&env, channel_count, &mut rng, shape) else {
                    continue;
                };
                // Channel-major, as a pattern's groups are filled.
                entries.sort_by_key(|&(ch, _)| ch);
                let what = format!("case {case}, C = {channel_count}, {mode:?}, shape {shape}");
                probed.clear();
                filled.clear();
                // Probe-as-you-go, never stopping early: the conjunction of
                // every prefix's verdict on its next link, per channel.
                let mut admitted = vec![true; channel_count];
                for &(ch, l) in &entries {
                    admitted[ch.index()] &= probed.can_add(ch, l);
                    probed.assign(ch, l);
                }
                for group in entries.chunk_by(|a, b| a.0 == b.0) {
                    let links: Vec<Link> = group.iter().map(|&(_, l)| l).collect();
                    filled.assign_all(group[0].0, &links);
                }
                // `can_add` also enforces one radio per node across channels,
                // which a single channel's verdict does not see; the set's
                // verdict does.
                assert_eq!(
                    admitted.iter().all(|&ok| ok),
                    filled.slot_feasible(),
                    "{what}: {entries:?}"
                );
                if filled.cross_channel_disjoint {
                    for ch in (0..channel_count as u16).map(ChannelId::new) {
                        assert_eq!(
                            admitted[ch.index()],
                            filled.channel(ch).slot_feasible(),
                            "{what}, {ch}: {entries:?}"
                        );
                    }
                }
                if filled.slot_feasible() {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
            }
        }
        assert!(
            feasible > 50 && infeasible > 150,
            "{feasible} feasible and {infeasible} infeasible slots were drawn"
        );
    }

    #[test]
    fn probe_order_never_changes_a_verdict() {
        // The memo remembers the last failed victim, so its content depends
        // on the order candidates were probed in — verdicts must not.
        for seed in 0..20u64 {
            let env = seeded_world(seed, 1);
            for mode in [PruningMode::Forced, PruningMode::Off] {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0dde);
                let mut ledger = SlotLedger::with_pruning(&env, mode);
                probe_and_fill(&mut ledger, &mut rng, 120, "fill");
                let mut candidates: Vec<Link> =
                    (0..60).map(|_| draw_link(&env, &mut rng)).collect();
                let verdict_of = |ledger: &SlotLedger<'_>, order: &[Link]| -> Vec<(Link, bool)> {
                    let mut verdicts: Vec<(Link, bool)> =
                        order.iter().map(|&c| (c, ledger.can_add(c))).collect();
                    verdicts.sort_by_key(|&(c, _)| (c.head, c.tail));
                    verdicts
                };
                let first = verdict_of(&ledger, &candidates);
                assert!(
                    first.iter().any(|&(_, ok)| !ok),
                    "seed {seed}: no rejection to memoise"
                );
                for _ in 0..4 {
                    candidates.shuffle(&mut rng);
                    assert_eq!(verdict_of(&ledger, &candidates), first, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn veto_first_probe_matches_the_full_probe() {
        for seed in 0..30u64 {
            let env = seeded_world(seed, 1);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7e70);
            let mut ledger = SlotLedger::new(&env);
            probe_and_fill(&mut ledger, &mut rng, 60, "fill");
            for _ in 0..40 {
                let tentative: Vec<Link> = (0..rng.gen_range(0..4usize))
                    .map(|_| draw_link(&env, &mut rng))
                    .collect();
                // The full probe: every participant's handshake in one fill.
                let participants: Vec<Link> =
                    ledger.links().iter().chain(&tentative).copied().collect();
                let ok = handshakes(&env, &participants);
                let (existing, claims) = ok.split_at(ledger.len());
                assert_eq!(
                    ledger.probe_unless_vetoed(&tentative),
                    existing.iter().all(|&ok| ok).then(|| claims.to_vec()),
                    "seed {seed}: {tentative:?}"
                );
            }
        }
    }

    #[test]
    fn occupancy_answers_match_a_scan_of_the_assigned_links() {
        // Nothing here reads the occupancy bits: every expected answer is a
        // `shares_endpoint` scan over what the test itself assigned.
        for (seed, channel_count) in (0..24u64).flat_map(|seed| [(seed, 1usize), (seed, 3)]) {
            let env = seeded_world(seed, channel_count);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0cc0);
            let mut set = ChannelSlotLedger::new(&env);
            let mut assigned: Vec<Vec<Link>> = vec![Vec::new(); channel_count];
            let n = env.node_count() as u32;
            for step in 0..120 {
                if step % 40 == 39 {
                    // Clear, then re-fill through the same buffers.
                    set.clear();
                    assigned.iter_mut().for_each(Vec::clear);
                }
                let taken = assigned.concat();
                let candidate = match (rng.gen_range(0..6u32), taken.choose(&mut rng)) {
                    (0, _) => link(step % n, step % n),
                    // Forced endpoint sharing, on this channel or another.
                    (1, Some(t)) => link(t.tail.index() as u32, rng.gen_range(0..n)),
                    (2, Some(t)) => link(rng.gen_range(0..n), t.head.index() as u32),
                    _ => draw_link(&env, &mut rng),
                };
                let channel = rng.gen_range(0..channel_count);
                set.assign(ChannelId::new(channel as u16), candidate);
                assigned[channel].push(candidate);

                let taken = assigned.concat();
                let disjoint = taken.iter().enumerate().all(|(i, a)| {
                    a.head != a.tail && taken[i + 1..].iter().all(|b| !a.shares_endpoint(b))
                });
                let sinr_ok = set.channels.iter().all(SlotLedger::all_links_ok);
                assert_eq!(set.slot_feasible(), disjoint && sinr_ok, "seed {seed}");

                let (mut radio_rejects, mut endpoint_rejects) = (0, 0);
                scream_obs::install_with_capacity(0);
                for i in 0..30 {
                    let probe = match i % 3 {
                        0 => taken[rng.gen_range(0..taken.len())],
                        1 => taken[rng.gen_range(0..taken.len())].reversed(),
                        _ => draw_link(&env, &mut rng),
                    };
                    let c = rng.gen_range(0..channel_count);
                    let busy: Vec<bool> = assigned
                        .iter()
                        .map(|links| links.iter().any(|l| l.shares_endpoint(&probe)))
                        .collect();
                    assert_eq!(
                        set.channels[c].contains(probe),
                        assigned[c].contains(&probe)
                    );
                    assert_eq!(set.channels[c].endpoints_free(probe), !busy[c]);
                    assert_eq!(set.contains_link(probe), taken.contains(&probe));
                    assert_eq!(set.endpoints_free(probe), !busy.contains(&true), "{probe}");
                    let elsewhere = busy.iter().enumerate().any(|(o, &b)| o != c && b);
                    radio_rejects += u64::from(elsewhere);
                    endpoint_rejects +=
                        u64::from(!elsewhere && (probe.head == probe.tail || busy[c]));
                    set.can_add(ChannelId::new(c as u16), probe);
                }
                let counters = scream_obs::uninstall().expect("installed above").snapshot;
                let what = format!("seed {seed}, C = {channel_count}, step {step}");
                let radio = counters.counter("ledger.channel.reject_radio");
                assert_eq!(radio, radio_rejects, "{what}");
                let endpoint = counters.counter("ledger.probe.reject_endpoint");
                assert_eq!(endpoint, endpoint_rejects, "{what}");
            }
        }
    }

    #[test]
    fn contains_screens_idle_endpoints_without_changing_answers() {
        let env = line_env(8, 200.0, 1);
        let mut ledger = SlotLedger::new(&env);
        ledger.assign(link(0, 1));
        ledger.assign(link(4, 5));
        assert!(ledger.contains(link(0, 1)));
        assert!(!ledger.contains(link(1, 0)), "orientation matters");
        assert!(
            !ledger.contains(link(6, 7)),
            "idle endpoints screen to false"
        );
        assert!(
            !ledger.contains(link(0, 4)),
            "busy endpoints of different links still answer false"
        );
        let env2 = line_env(8, 200.0, 2);
        let mut set = ChannelSlotLedger::new(&env2);
        set.assign(ChannelId::new(1), link(0, 1));
        assert!(set.contains_link(link(0, 1)));
        assert!(!set.contains_link(link(0, 2)));
        assert!(!set.contains_link(link(6, 7)));
    }

    #[test]
    fn grid_ledger_agrees_with_from_scratch_over_many_probes() {
        let d = GridDeployment::new(6, 6, 170.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        // Horizontal links on alternating rows, added one by one; every probe
        // must agree with an exact fill of the same list plus the candidate.
        // Pruning forced: the grid is narrower than the cutoff disc.
        let mut ledger = SlotLedger::pruned(&env);
        let mut assigned: Vec<Link> = Vec::new();
        for row in 0..6u32 {
            for col in (0..5u32).step_by(3) {
                let candidate =
                    Link::new(NodeId::new(row * 6 + col), NodeId::new(row * 6 + col + 1));
                assert_eq!(
                    ledger.can_add(candidate),
                    feasible_with(&env, &assigned, candidate),
                    "divergence adding {candidate} to {assigned:?}"
                );
                ledger.assign(candidate);
                assigned.push(candidate);
                assert_eq!(
                    ledger.slot_feasible(),
                    SlotLedger::with_links(&env, &assigned).slot_feasible()
                );
            }
        }
        assert_eq!(ledger.links(), assigned.as_slice());
    }

    /// ROADMAP 1(b): the far-field bound under attack. A thousand links ring
    /// the origin just outside the pruning cutoff, with every pair of the
    /// environment at the largest shadowing boost it carries, so each far
    /// term comes within a few percent of the unit the bound charges for it.
    /// Two families of candidates receive at the origin — one in the data
    /// direction, one in the ACK direction — with lengths swept through the
    /// one at which that direction meets β exactly; the other direction's
    /// transmitter is 6 dB louder, so it never decides. No ring endpoint is
    /// near a candidate, so every probe reaches the aggregated bound, which
    /// must accept the comfortable candidates and fall back to the exact sum
    /// for those inside its slack — the victim at β among them.
    #[test]
    fn the_far_field_bound_holds_against_a_ring_at_maximum_boost() {
        let model = PropagationModel::log_distance(3.0);
        let (boost, loud, quiet) = (Db::new(8.0), Dbm::new(20.0), Dbm::new(14.0));
        let node = |id: usize, at: Point2, power: Dbm| {
            scream_topology::NodeInfo::new(NodeId::new(id as u32), at, power)
        };
        let dense = |nodes: Vec<scream_topology::NodeInfo>| {
            let d = Deployment::from_nodes(nodes, Rect::square(1.0)).unwrap();
            RadioEnvironment::builder()
                .propagation(model)
                .build(&d)
                .boosted_everywhere(boost)
        };
        // The cutoff and the unit depend on the loudest power and the boost.
        let pair = (0..2).map(|i| node(i, Point2::new(i as f64, 0.0), loud));
        let far = dense(pair.collect()).far_field();
        let (cutoff_m, unit_fx) = (far.cutoff_m.get(), fx(far.unit_mw.get()));
        let config = RadioConfig::mesh_default();
        let (noise_mw, beta) = (
            config.noise_floor_mw().get(),
            config.sinr_threshold_linear(),
        );

        // The length at which a quiet transmitter meets β at the origin over
        // `interference_mw`, by the model's own inversion.
        let length_at_beta = |interference_mw: f64| {
            let received = Mw::new(beta * (noise_mw + interference_mw)).to_dbm();
            model.distance_for_loss_db(quiet + boost - received).get()
        };
        // Ring heads sit far enough out that no candidate endpoint, at most
        // 1.03 × the interference-free length from the origin, is within the
        // cutoff of one; tails sit 2 m further out.
        let ring_links = 1000;
        let head_radius_m = cutoff_m + 1.04 * length_at_beta(0.0) + 1.0;
        let mut nodes = Vec::new();
        for i in 0..ring_links {
            let (sin, cos) = (i as f64 * std::f64::consts::TAU / ring_links as f64).sin_cos();
            for radius_m in [head_radius_m, head_radius_m + 2.0] {
                nodes.push(node(
                    nodes.len(),
                    Point2::new(radius_m * cos, radius_m * sin),
                    loud,
                ));
            }
        }
        let ring: Vec<Link> = (0..ring_links as u32)
            .map(|i| link(2 * i, 2 * i + 1))
            .collect();
        let offsets = [-3e-2, -1e-3, -1e-5, -1e-7, -1e-9, -1e-11, 0.0];
        let mut candidates = Vec::new();
        for dir in DIRS {
            // The ring's exact sum at the origin, all terms alike.
            let tx_radius_m = head_radius_m + if dir == Dir::Data { 0.0 } else { 2.0 };
            let term_mw = (loud + boost).to_mw().get() * model.gain(Meters::new(tx_radius_m));
            let at_beta_m = length_at_beta(ring_links as f64 * term_mw);
            let side = if dir == Dir::Data { 1.0 } else { -1.0 };
            for e in offsets.into_iter().chain(offsets.map(|e| -e)) {
                let (rx, tx) = (nodes.len(), nodes.len() + 1);
                let tx_at = Point2::new(side * at_beta_m * (1.0 + e), 0.0);
                nodes.push(node(rx, Point2::new(0.0, 0.0), loud));
                nodes.push(node(tx, tx_at, quiet));
                let [rx, tx] = [rx, tx].map(|i| i as u32);
                let candidate = if dir == Dir::Data {
                    link(tx, rx)
                } else {
                    link(rx, tx)
                };
                candidates.push((candidate, dir, e));
            }
        }
        let env = dense(nodes);
        assert_eq!(env.far_field(), far);

        let mut pruned = SlotLedger::new(&env);
        let mut exact = SlotLedger::exact(&env);
        pruned.assign_all(&ring);
        exact.assign_all(&ring);
        assert!(pruned.is_pruned() && pruned.all_links_ok());
        let k = ring.len();
        for &(candidate, dir, e) in &candidates {
            let d = dir as usize;
            // The pure bound: above the exact sum, and within 10 % of it.
            let caps = exact.caps(candidate);
            let exact_fx = caps[d] - exact.slack_against(caps, &ring, candidate)[d];
            let upper_fx = far_field_upper(0, k, 0, unit_fx);
            assert!(
                exact_fx <= upper_fx && mw_of(upper_fx) < 1.1 * mw_of(exact_fx),
                "{exact_fx} {upper_fx}"
            );
            // At β by the float sum the construction solved for.
            let rx = dir.rx(candidate);
            let ring_mw: f64 = ring.iter().map(|&l| env.received_mw(dir.tx(l), rx)).sum();
            let sinr = env.received_mw(dir.tx(candidate), rx) / (noise_mw + ring_mw);
            if e == 0.0 {
                assert!(
                    (sinr / beta - 1.0).abs() < 1e-12,
                    "not at β: {sinr} vs {beta}"
                );
            }
        }

        scream_obs::install_with_capacity(0);
        let verdicts: Vec<bool> = candidates
            .iter()
            .map(|&(candidate, ..)| pruned.can_add(candidate))
            .collect();
        let counters = scream_obs::uninstall().expect("installed above").snapshot;
        for (&(candidate, dir, e), &verdict) in candidates.iter().zip(&verdicts) {
            let expected = exact.can_add(candidate);
            assert_eq!(verdict, expected, "{dir:?} at {e:+e}: {candidate}");
            // Shorter than the length at β is louder; the one at β may go
            // either way.
            if e != 0.0 {
                assert_eq!(verdict, e < 0.0, "{dir:?} at {e:+e}");
            }
        }
        let accepted = verdicts.iter().filter(|&&ok| ok).count() as u64;
        let (bound, fallback) = (
            counters.counter("ledger.farfield.accept"),
            counters.counter("ledger.exact.fallback"),
        );
        assert_eq!(
            bound + fallback,
            candidates.len() as u64,
            "a probe skipped the bound"
        );
        assert!(
            bound > 0 && fallback > 0,
            "bound {bound}, fallback {fallback}"
        );
        assert!(
            accepted > bound,
            "no candidate was accepted after a fallback"
        );
        assert_eq!(counters.counter("ledger.farfield.skip_existing"), accepted);
    }
}
