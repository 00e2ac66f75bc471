//! The Chord OverLog program.
//!
//! Structured after the published P2-Chord (Loo et al., SOSP'05), adapted
//! to this dialect (no negation, no `periodic` repeat counts):
//!
//! * **Join** (`j*`): while a node has no successors it periodically asks
//!   its landmark to look up its own ID; the answer seeds `succ`.
//! * **Best successor** (`bs*`): any change to `succ` (and a periodic
//!   sweep, to recover from deletions) recomputes `bestSucc` as the `succ`
//!   row with minimal clockwise distance.
//! * **Stabilization** (`st*`, `sb*`): the paper's §3.1.1 semantics —
//!   `stabilizeRequest` goes to the immediate successor, which answers
//!   with its predecessor (`sendPred`, absorbed by `sb4`) and its
//!   successor list (`returnSucc`, absorbed by `sb7`); `notify` updates
//!   the successor's predecessor.
//! * **Fingers** (`fx*`): a rotating index is fixed each round by looking
//!   up `NID + 2^I`.
//! * **Liveness** (`pg*`, `ft*`): every neighbor in `pingNode` is pinged;
//!   an unanswered ping becomes a `faultyNode`, which deletes the dead
//!   neighbor from the routing tables (and resets `pred`).
//! * **Lookups** (`l1`–`l4`): the paper's three rules, except that `l3`
//!   forwards one copy per next-hop node (`l3`/`l3b`) instead of one per
//!   finger position, plus the standard fall-back to the successor when
//!   no finger improves on the local node.

/// Tunable parameters. Defaults are §4's evaluation settings: *"Nodes fix
/// fingers every 10 sec, stabilize every 5 sec, and ping neighbors for
/// liveness every 5 sec."*
#[derive(Debug, Clone)]
pub struct ChordConfig {
    /// Stabilization period (seconds).
    pub stabilize_secs: u32,
    /// Liveness-ping period (seconds).
    pub ping_secs: u32,
    /// Finger-fix period (seconds).
    pub finger_secs: u32,
    /// Join retry period (seconds).
    pub join_secs: u32,
    /// Ping timeout (seconds) before a neighbor is declared faulty.
    pub ping_timeout_secs: u32,
    /// Maximum successor candidates retained.
    pub succ_size: usize,
    /// Soft-state lifetime for routing rows (seconds). Must exceed the
    /// refresh periods above or the ring dissolves between rounds.
    pub row_lifetime_secs: u32,
    /// Lifetime of finger rows (seconds). Longer than `row_lifetime_secs`
    /// because a finger is only re-fixed when its index comes up in the
    /// rotation (every `finger_secs * 16`); dead fingers are evicted by
    /// ping liveness well before expiry.
    pub finger_lifetime_secs: u32,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            stabilize_secs: 5,
            ping_secs: 5,
            finger_secs: 10,
            join_secs: 10,
            ping_timeout_secs: 4,
            succ_size: 16,
            row_lifetime_secs: 60,
            finger_lifetime_secs: 300,
        }
    }
}

/// Chord's lookup rules (`l1`–`l4`), the last section of [`chord_program`].
/// The §3.3 lookups over a snapshot are these rules, rewritten.
pub const LOOKUP_RULES: &str = r#"/* ------------------------------------------------ lookups (paper l1-l3) */
l1 lookupResults@ReqAddr(K, SID, SAddr, E, NAddr) :- node@NAddr(NID),
     lookup@NAddr(K, ReqAddr, E), bestSucc@NAddr(SID, SAddr), K in (NID, SID].
l2 bestLookupDist@NAddr(K, ReqAddr, E, min<D>) :- node@NAddr(NID),
     lookup@NAddr(K, ReqAddr, E), finger@NAddr(FPos, FID, FAddr),
     D := K - FID - 1, FID in (NID, K).
/* Several finger positions can hold the best finger; the hop goes to its
   node once, not once per position (min<> picks among rows that share
   one FID and so one address). */
l3 lookupHop@NAddr(K, ReqAddr, E, min<FAddr>) :- node@NAddr(NID),
     bestLookupDist@NAddr(K, ReqAddr, E, D), finger@NAddr(FPos, FID, FAddr),
     D == K - FID - 1, FID in (NID, K), FAddr != NAddr.
l3b lookup@FAddr(K, ReqAddr, E) :- lookupHop@NAddr(K, ReqAddr, E, FAddr).
l2b lookupFingerCount@NAddr(K, ReqAddr, E, count<*>) :- node@NAddr(NID),
     lookup@NAddr(K, ReqAddr, E), finger@NAddr(FPos, FID, FAddr), FID in (NID, K).
l4 lookup@SAddr(K, ReqAddr, E) :- lookupFingerCount@NAddr(K, ReqAddr, E, C),
     C == 0, node@NAddr(NID), bestSucc@NAddr(SID, SAddr), K in (SID, NID],
     SAddr != NAddr.
"#;

/// The Chord rule program (tables + rules, no per-node facts).
pub fn chord_program(cfg: &ChordConfig) -> String {
    let ChordConfig {
        stabilize_secs: t_stab,
        ping_secs: t_ping,
        finger_secs: t_fix,
        join_secs: t_join,
        ping_timeout_secs: t_out,
        succ_size,
        row_lifetime_secs: life,
        finger_lifetime_secs: finger_life,
    } = cfg;
    format!(
        r#"
/* ------------------------------------------------ tables */
materialize(node, infinity, 1, keys(1)).
materialize(landmark, infinity, 1, keys(1)).
materialize(succ, {life}, {succ_size}, keys(1, 3)).
materialize(bestSucc, {life}, 1, keys(1)).
materialize(pred, infinity, 1, keys(1)).
materialize(finger, {finger_life}, 64, keys(1, 2)).
materialize(uniqueFinger, {finger_life}, 64, keys(1, 2)).
materialize(nextFingerFix, infinity, 1, keys(1)).
materialize(fingerLookupPending, 10, 64, keys(1, 2)).
materialize(pingNode, {life}, 64, keys(1, 2)).
materialize(pingPending, 15, 256, keys(1, 2, 3)).
materialize(faultyNode, 30, 64, keys(1, 2)).

/* ------------------------------------------------ join */
j0 joinTick@NAddr(E) :- periodic@NAddr(E, {t_join}).
j1 succCount@NAddr(E, count<*>) :- joinTick@NAddr(E), succ@NAddr(SID, SAddr).
j2 lookup@LAddr(NID, NAddr, E2) :- succCount@NAddr(E, C), C == 0,
     landmark@NAddr(LAddr), node@NAddr(NID), LAddr != "-", LAddr != NAddr,
     E2 := f_rand().
j3 succ@NAddr(SID, SAddr) :- lookupResults@NAddr(K, SID, SAddr, E, RespAddr),
     node@NAddr(NID), K == NID, SAddr != NAddr.
/* A node that is its own successor (standalone or bootstrap) must keep
   that row alive across the soft-state lifetime... */
j4 succ@NAddr(SID, SAddr) :- joinTick@NAddr(E), bestSucc@NAddr(SID, SAddr),
     SAddr == NAddr.
/* ...and a landmark that lost all successors re-seeds itself. */
j5 succ@NAddr(NID, NAddr) :- succCount@NAddr(E, C), C == 0,
     landmark@NAddr(LAddr), node@NAddr(NID), LAddr == "-".

/* ------------------------------------------------ best successor */
bs1 succChange@NAddr() :- succ@NAddr(SID, SAddr).
bs2 succChange@NAddr() :- periodic@NAddr(E, {t_stab}).
bs3 bestSuccDist@NAddr(min<D>) :- succChange@NAddr(), succ@NAddr(SID, SAddr),
     node@NAddr(NID), D := SID - NID - 1.
bs4 bestSucc@NAddr(SID, SAddr) :- bestSuccDist@NAddr(D), succ@NAddr(SID, SAddr),
     node@NAddr(NID), D == SID - NID - 1.

/* ------------------------------------------------ stabilization */
st1 stabTick@NAddr(E) :- periodic@NAddr(E, {t_stab}).
st2 stabilizeRequest@SAddr(NID, NAddr) :- stabTick@NAddr(E),
     bestSucc@NAddr(SID, SAddr), node@NAddr(NID), SAddr != NAddr.
st3 sendPred@ReqAddr(PID, PAddr) :- stabilizeRequest@NAddr(SomeID, ReqAddr),
     pred@NAddr(PID, PAddr), PAddr != "-".
sb4 succ@NAddr(SID, SAddr) :- sendPred@NAddr(SID, SAddr), SAddr != NAddr.
st4 reqSuccList@SAddr(NAddr) :- stabTick@NAddr(E), bestSucc@NAddr(SID, SAddr),
     SAddr != NAddr.
st5 returnSucc@ReqAddr(SID, SAddr, NAddr) :- reqSuccList@NAddr(ReqAddr),
     succ@NAddr(SID, SAddr), SAddr != ReqAddr.
st6 returnSucc@ReqAddr(NID, NAddr, NAddr) :- reqSuccList@NAddr(ReqAddr), node@NAddr(NID).
sb7 succ@NAddr(SID, SAddr) :- returnSucc@NAddr(SID, SAddr, Sender), SAddr != NAddr.
st7 notify@SAddr(NID, NAddr) :- stabTick@NAddr(E), bestSucc@NAddr(SID, SAddr),
     node@NAddr(NID), SAddr != NAddr.
pr1 pred@NAddr(PID, PAddr) :- notify@NAddr(PID, PAddr), pred@NAddr(OldPID, OldPAddr),
     node@NAddr(NID), PAddr != NAddr,
     (OldPAddr == "-") || (PID in (OldPID, NID)).
sb8 succ@NAddr(PID, PAddr) :- pred@NAddr(PID, PAddr), PAddr != "-", PAddr != NAddr.

/* ------------------------------------------------ fingers */
fx1 fixTick@NAddr(E) :- periodic@NAddr(E, {t_fix}).
fx2 fingerLookup@NAddr(E, I) :- fixTick@NAddr(E), nextFingerFix@NAddr(I).
fx3 nextFingerFix@NAddr(I2) :- fingerLookup@NAddr(E, I), I2 := 48 + ((I - 47) % 16).
fx4 fingerLookupPending@NAddr(E, I) :- fingerLookup@NAddr(E, I).
fx5 lookup@NAddr(K, NAddr, E) :- fingerLookup@NAddr(E, I), node@NAddr(NID),
     K := NID + f_pow2(I).
fx6 finger@NAddr(I, SID, SAddr) :- lookupResults@NAddr(K, SID, SAddr, E, RespAddr),
     fingerLookupPending@NAddr(E, I), SAddr != NAddr.
fx7 delete fingerLookupPending@NAddr(E, I) :-
     lookupResults@NAddr(K, SID, SAddr, E, RespAddr),
     fingerLookupPending@NAddr(E, I).
uf1 uniqueFinger@NAddr(FAddr, FID) :- finger@NAddr(I, FID, FAddr).
/* Re-derive periodically as well: steady-state refreshes of finger rows
   produce no deltas, and derived soft state must not silently expire. */
uf2 uniqueFinger@NAddr(FAddr, FID) :- fixTick@NAddr(E), finger@NAddr(I, FID, FAddr).

/* ------------------------------------------------ liveness */
/* Delta-derived for immediacy... */
pn1 pingNode@NAddr(SAddr) :- succ@NAddr(SID, SAddr), SAddr != NAddr.
pn2 pingNode@NAddr(PAddr) :- pred@NAddr(PID, PAddr), PAddr != "-", PAddr != NAddr.
pn3 pingNode@NAddr(FAddr) :- finger@NAddr(I, FID, FAddr), FAddr != NAddr.
/* ...and periodically re-derived, because refreshes of the source rows
   raise no deltas and the ping set must outlive its own soft lifetime. */
pn4 pingNode@NAddr(SAddr) :- pingTick@NAddr(E), succ@NAddr(SID, SAddr), SAddr != NAddr.
pn5 pingNode@NAddr(PAddr) :- pingTick@NAddr(E), pred@NAddr(PID, PAddr), PAddr != "-", PAddr != NAddr.
pn6 pingNode@NAddr(FAddr) :- pingTick@NAddr(E), finger@NAddr(I, FID, FAddr), FAddr != NAddr.
pg1 pingTick@NAddr(E) :- periodic@NAddr(E, {t_ping}).
pg2 pingPending@NAddr(RAddr, E, T) :- pingTick@NAddr(E), pingNode@NAddr(RAddr),
     T := f_now().
pg3 pingReq@RAddr(NAddr, E) :- pingPending@NAddr(RAddr, E, T).
pg4 pingResp@SenderAddr(NAddr, E) :- pingReq@NAddr(SenderAddr, E).
pg5 delete pingPending@NAddr(RAddr, E, T) :- pingResp@NAddr(RAddr, E),
     pingPending@NAddr(RAddr, E, T).
/* Suspicion needs TWO outstanding timed-out pings, not one: a single
   lost datagram must not tear a live neighbor out of the ring. */
pg6a missCount@NAddr(RAddr, count<*>) :- pingTick@NAddr(E),
     pingPending@NAddr(RAddr, E2, T), T < f_now() - {t_out}.
pg6b faultyNode@NAddr(RAddr, T2) :- missCount@NAddr(RAddr, C), C >= 2,
     T2 := f_now().

ft1 delete succ@NAddr(SID, FAddr) :- faultyNode@NAddr(FAddr, T),
     succ@NAddr(SID, FAddr).
ft2 delete finger@NAddr(I, FID, FAddr) :- faultyNode@NAddr(FAddr, T),
     finger@NAddr(I, FID, FAddr).
ft3 delete uniqueFinger@NAddr(FAddr, FID) :- faultyNode@NAddr(FAddr, T),
     uniqueFinger@NAddr(FAddr, FID).
ft4 pred@NAddr(0, "-") :- faultyNode@NAddr(FAddr, T), pred@NAddr(PID, FAddr).
ft5 delete pingNode@NAddr(FAddr) :- faultyNode@NAddr(FAddr, T),
     pingNode@NAddr(FAddr).
ft6 delete pingPending@NAddr(FAddr, E, T2) :- faultyNode@NAddr(FAddr, T),
     pingPending@NAddr(FAddr, E, T2).
ft7 delete bestSucc@NAddr(SID, FAddr) :- faultyNode@NAddr(FAddr, T),
     bestSucc@NAddr(SID, FAddr).

{LOOKUP_RULES}"#
    )
}

/// Per-node bootstrap facts.
///
/// `landmark` is `None` for the bootstrap node, which starts as a
/// one-node ring (its own successor); every other node names a landmark
/// through which it joins.
pub fn node_facts(addr: &str, id: u64, landmark: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str(&format!("node@\"{addr}\"({id:#x}).\n"));
    out.push_str(&format!("pred@\"{addr}\"(0, \"-\").\n"));
    out.push_str(&format!("nextFingerFix@\"{addr}\"(48).\n"));
    match landmark {
        Some(l) => {
            out.push_str(&format!("landmark@\"{addr}\"(\"{l}\").\n"));
        }
        None => {
            out.push_str(&format!("landmark@\"{addr}\"(\"-\").\n"));
            out.push_str(&format!("succ@\"{addr}\"({id:#x}, \"{addr}\").\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn program_compiles_and_plans() {
        let src = chord_program(&ChordConfig::default());
        let prog = p2_overlog::compile(&src).expect("chord program must compile");
        let compiled = p2_planner::compile_program(&prog, &HashSet::new()).expect("must plan");
        assert!(compiled.tables.len() >= 12);
        assert!(
            compiled.strands.len() >= 30,
            "got {}",
            compiled.strands.len()
        );
    }

    #[test]
    fn facts_compile() {
        for facts in [
            node_facts("n1:0", 0x1234, None),
            node_facts("n2:0", 0x9999, Some("n1:0")),
        ] {
            let prog = p2_overlog::compile(&facts).expect("facts must compile");
            let compiled = p2_planner::compile_program(&prog, &HashSet::new()).unwrap();
            assert!(compiled.facts.len() >= 3);
        }
    }

    #[test]
    fn config_periods_appear_in_source() {
        let cfg = ChordConfig {
            stabilize_secs: 7,
            ..Default::default()
        };
        let src = chord_program(&cfg);
        assert!(src.contains("periodic@NAddr(E, 7)"));
    }
}
