//! [`SimHarness`] — the population engine at one shard — and the
//! sequential oracle the engine is tested against.
//!
//! The substitution for the paper's 21-process testbed (DESIGN.md §2.4)
//! is the engine of [`crate::parallel`]; `SimHarness::new` builds it
//! with a single shard, which runs on the calling thread.
//!
//! [`SequentialOracle`] is the same struct stepped by the classic
//! discrete-event loop instead of published clocks: at every event
//! instant of anyone, scan every node for the earliest event, fire
//! every due timer, and pump *every* live node in every settle wave,
//! control ops' included. It shares the engine's control plane but none
//! of its clock protocol, dirty-node marks or timer caches, which is
//! what makes it a useful reference: the equivalence suites run one
//! scenario through both and demand identical bits. Nothing but tests
//! and the scale bench's "sequential" baseline row should construct it.

use crate::node::NodeConfig;
use crate::parallel::{Engine, Mode};
use p2_net::SimConfig;
use p2_types::Time;

/// Marker for [`SimHarness`].
pub struct OneShard;
impl Mode for OneShard {}

/// A simulated population of P2 nodes on the calling thread: the
/// engine with one shard.
pub type SimHarness = Engine<OneShard>;

impl SimHarness {
    /// Create a harness with the given network config, node config
    /// template, and seed (node RNGs derive from it).
    pub fn new(net_config: SimConfig, node_config: NodeConfig, seed: u64) -> SimHarness {
        Engine::build(net_config, node_config, seed, 1)
    }

    /// A harness with default network (10 ms links) and node settings.
    pub fn with_seed(seed: u64) -> SimHarness {
        SimHarness::new(SimConfig::default(), NodeConfig::default(), seed)
    }
}

/// Marker for [`SequentialOracle`].
#[doc(hidden)]
pub struct Naive;
impl Mode for Naive {
    const NAIVE: bool = true;
}

/// The one-shard engine stepped by `Engine::run_until_naive`.
#[doc(hidden)]
pub type SequentialOracle = Engine<Naive>;

impl SequentialOracle {
    /// Same arguments as [`SimHarness::new`].
    pub fn new(net_config: SimConfig, node_config: NodeConfig, seed: u64) -> SequentialOracle {
        Engine::build(net_config, node_config, seed, 1)
    }
}

impl<M: Mode> Engine<M> {
    /// The reference stepper: advance to `deadline` one global event
    /// instant at a time, scanning and pumping the whole (single) shard.
    pub(crate) fn run_until_naive(&mut self, deadline: Time) {
        self.control_settle();
        loop {
            let shard = &mut self.shards[0];
            let mut next = shard.net.next_delivery();
            for sn in &shard.nodes {
                if !shard.net.is_down(&sn.addr) {
                    next = next.into_iter().chain(sn.node.next_timer()).min();
                }
            }
            let now = match next {
                Some(t) if t <= deadline => t.max(self.clock),
                _ => break,
            };
            self.clock = now;
            for sn in &mut shard.nodes {
                let due = sn.node.next_timer().is_some_and(|t| t <= now);
                if due && !shard.net.is_down(&sn.addr) {
                    sn.node.fire_timers(now);
                }
            }
            // Periodic tracer GC, down nodes included.
            if now >= self.next_gc {
                for sn in &mut shard.nodes {
                    sn.node.trace_gc(now);
                }
                self.next_gc = now + self.gc_period;
            }
            self.control_settle();
        }
        self.clock = deadline;
        self.control_settle();
    }
}

#[cfg(test)]
mod tests {
    //! One scenario set for every way of stepping a population: each
    //! scenario returns a transcript, which must be the same on the
    //! oracle and on the engine at 1, 2 and 4 shards.

    use super::*;
    use crate::{ParallelHarness, Population};
    use p2_types::{Addr, TimeDelta, Tuple, Value};

    type Scenario = fn(&mut dyn Population) -> Vec<String>;

    /// Run `scenario` on the oracle and on the engine at 1/2/4 shards,
    /// demand equal transcripts, and return the common one.
    fn on_every_engine(
        net: SimConfig,
        node: NodeConfig,
        seed: u64,
        scenario: Scenario,
    ) -> Vec<String> {
        let want = scenario(&mut SequentialOracle::new(net.clone(), node.clone(), seed));
        let one = scenario(&mut SimHarness::new(net.clone(), node.clone(), seed));
        assert_eq!(one, want, "one shard diverged from the oracle");
        for shards in [2, 4] {
            let mut sim = ParallelHarness::new(net.clone(), node.clone(), seed, shards);
            assert_eq!(scenario(&mut sim), want, "{shards} shards diverged");
        }
        want
    }

    fn defaults(seed: u64, scenario: Scenario) -> Vec<String> {
        on_every_engine(SimConfig::default(), NodeConfig::default(), seed, scenario)
    }

    fn unstaggered() -> NodeConfig {
        NodeConfig {
            stagger_timers: false,
            ..Default::default()
        }
    }

    fn int_event(name: &str, at: &str, x: i64) -> Tuple {
        Tuple::new(name, [Value::addr(at), Value::Int(x)])
    }

    fn watched(sim: &mut dyn Population, addr: &Addr, name: &str) -> Vec<String> {
        let got = sim.node_mut(addr).take_watched(name);
        got.iter().map(|(t, x)| format!("{t:?} {x}")).collect()
    }

    /// With two or more shards the two nodes sit on different ones.
    #[test]
    fn two_node_ping_pong() {
        let got = defaults(1, |sim| {
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install(&a, r#"fwd pong@"b"(X) :- ping@N(X)."#).unwrap();
            sim.install(&b, "done got@N(X) :- pong@N(X).").unwrap();
            sim.node_mut(&b).watch("got");
            sim.inject(&a, int_event("ping", "a", 7));
            sim.run_for(TimeDelta::from_millis(50));
            watched(sim, &b, "got")
        });
        // One latency hop: the delivery happened at +10ms of virtual time.
        let at = Time::from_millis(10);
        assert_eq!(got, [format!("{at:?} got(b, 7)")]);
    }

    #[test]
    fn periodic_rules_fire_on_schedule() {
        let ticks = on_every_engine(SimConfig::default(), unstaggered(), 3, |sim| {
            let a = sim.add_node("a");
            sim.install(&a, "t tick@N(E) :- periodic@N(E, 5).").unwrap();
            sim.node_mut(&a).watch("tick");
            sim.run_for(TimeDelta::from_secs(21));
            let got = sim.node_mut(&a).take_watched("tick");
            got.iter().map(|(t, _)| format!("{t:?}")).collect()
        });
        let want = [5, 10, 15, 20].map(|s| format!("{:?}", Time::from_secs(s)));
        assert_eq!(ticks, want);
    }

    /// A deadline already behind the clock is "now": ticks keep their
    /// schedule and nothing is stamped in an executed past.
    #[test]
    fn past_deadline_does_not_rewind_the_clock() {
        let got = on_every_engine(SimConfig::default(), unstaggered(), 4, |sim| {
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install(&a, r#"t tick@"b"(E) :- periodic@N(E, 3)."#)
                .unwrap();
            sim.node_mut(&b).watch("tick");
            sim.run_for(TimeDelta::from_secs(10));
            let mut nows = vec![sim.now()];
            sim.run_until(Time::from_secs(5));
            nows.push(sim.now());
            sim.run_for(TimeDelta::from_secs(2));
            nows.push(sim.now());
            assert!(nows.is_sorted(), "the clock ran backwards: {nows:?}");
            let got = sim.node_mut(&b).take_watched("tick");
            let ticks = got.iter().map(|(t, _)| format!("{t:?}"));
            ticks
                .chain(nows.iter().map(|t| format!("now {t:?}")))
                .collect()
        });
        let at = |ms| format!("{:?}", Time::from_millis(ms));
        let ticks = [3_010, 6_010, 9_010].map(at);
        let nows = [10_000, 10_000, 12_000].map(|ms| format!("now {}", at(ms)));
        assert_eq!(got, [ticks, nows].concat());
    }

    #[test]
    fn gossip_pair_is_deterministic() {
        let rows = defaults(42, |sim| {
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install_all(
                "materialize(seen, infinity, infinity, keys(1, 2)).
                 g gossip@N(E) :- periodic@N(E, 3).
                 s seen@N(E) :- gossip@N(E).",
            )
            .unwrap();
            sim.run_for(TimeDelta::from_secs(30));
            let now = sim.now();
            let mut rows = sim.node_mut(&a).table_scan("seen", now);
            rows.extend(sim.node_mut(&b).table_scan("seen", now));
            rows.iter().map(|t| t.to_string()).collect()
        });
        assert_eq!(rows.len(), 20, "ten gossip events per node");
    }

    #[test]
    fn crash_and_revive() {
        let seen = defaults(9, |sim| {
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install(&a, r#"f out@"b"(X) :- go@N(X)."#).unwrap();
            sim.install(&b, "c seen@N(X) :- out@N(X).").unwrap();
            sim.node_mut(&b).watch("seen");
            sim.crash(&b);
            sim.inject(&a, int_event("go", "a", 1));
            sim.run_for(TimeDelta::from_millis(100));
            assert!(sim.node_mut(&b).take_watched("seen").is_empty());
            sim.revive(&b);
            sim.inject(&a, int_event("go", "a", 2));
            sim.run_for(TimeDelta::from_millis(100));
            watched(sim, &b, "seen")
        });
        assert_eq!(seen.len(), 1);
        assert!(seen[0].ends_with("seen(b, 2)"), "{seen:?}");
    }

    /// A tuple injected into a down node waits for the revival, and
    /// runs at the first settle after it: the entry settle of the next
    /// run, at the run's start.
    #[test]
    fn a_tuple_injected_while_down_runs_at_the_entry_settle() {
        let seen = defaults(13, |sim| {
            let _a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install(&b, "c seen@N(X) :- go@N(X).").unwrap();
            sim.node_mut(&b).watch("seen");
            sim.run_for(TimeDelta::from_secs(1));
            sim.crash(&b);
            sim.inject(&b, int_event("go", "b", 1));
            sim.run_for(TimeDelta::from_secs(1));
            assert!(sim.node(&b).watched("seen").is_empty());
            sim.revive(&b);
            sim.run_for(TimeDelta::from_secs(1));
            watched(sim, &b, "seen")
        });
        assert_eq!(seen, [format!("{:?} seen(b, 1)", Time::from_secs(2))]);
    }

    /// A tuple handed straight to a node through `node_mut`, with no
    /// settle of its own, is pumped by the next run's entry settle.
    #[test]
    fn a_direct_node_inject_is_pumped() {
        let seen = defaults(14, |sim| {
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install(&a, r#"f out@"b"(X) :- go@N(X)."#).unwrap();
            sim.install(&b, "c seen@N(X) :- out@N(X).").unwrap();
            sim.node_mut(&b).watch("seen");
            sim.run_for(TimeDelta::from_secs(1));
            sim.node_mut(&a).inject(int_event("go", "a", 5));
            sim.run_for(TimeDelta::from_secs(1));
            watched(sim, &b, "seen")
        });
        assert_eq!(seen, [format!("{:?} seen(b, 5)", Time::from_millis(1_010))]);
    }

    /// An install's fact addressed to a node on another shard leaves
    /// within the install's settle; where it lands answers one latency
    /// later. On a zero-latency fabric (one shard) the receiver answers
    /// within the install itself.
    #[test]
    fn an_installs_remote_fact_settles_its_receiver() {
        fn remote_fact(sim: &mut dyn Population) -> Vec<String> {
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install(&b, r#"e echo@"a"(X) :- fact@N(X)."#).unwrap();
            sim.node_mut(&a).watch("echo");
            sim.install(&a, r#"fact@"b"(3)."#).unwrap();
            let mut out = vec![format!("sent {}", sim.net_stats().sent_by(&a))];
            out.extend(watched(sim, &a, "echo"));
            sim.run_for(TimeDelta::from_millis(50));
            out.extend(watched(sim, &a, "echo"));
            out
        }
        let echo = |ms| format!("{:?} echo(a, 3)", Time::from_millis(ms));
        let got = defaults(15, remote_fact);
        assert_eq!(got, ["sent 1".to_string(), echo(20)]);
        let instant = SimConfig {
            latency: TimeDelta::ZERO,
            ..Default::default()
        };
        let want = remote_fact(&mut SequentialOracle::new(
            instant.clone(),
            unstaggered(),
            15,
        ));
        assert_eq!(want, ["sent 1".to_string(), echo(0)]);
        assert_eq!(
            remote_fact(&mut SimHarness::new(instant, unstaggered(), 15)),
            want
        );
    }

    /// A restart reinstalls what the node had installed and not
    /// uninstalled.
    #[test]
    fn restart_leaves_an_uninstalled_program_out() {
        let got = defaults(16, |sim| {
            let a = sim.add_node("a");
            let gone = sim.install(&a, "r1 pong@N(X) :- ping@N(X).").unwrap();
            sim.install(&a, "r2 pung@N(X) :- ping@N(X).").unwrap();
            sim.node_mut(&a).uninstall(gone);
            sim.restart(&a).unwrap();
            sim.node_mut(&a).watch("pong");
            sim.node_mut(&a).watch("pung");
            sim.inject(&a, int_event("ping", "a", 1));
            let mut out = watched(sim, &a, "pong");
            out.extend(watched(sim, &a, "pung"));
            out
        });
        assert_eq!(got, [format!("{:?} pung(a, 1)", Time::ZERO)]);
    }

    #[test]
    fn link_partition_is_directional_and_heals() {
        let back = defaults(11, |sim| {
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install(&a, r#"f out@"b"(X) :- go@N(X)."#).unwrap();
            sim.install(&b, r#"g back@"a"(X) :- out@N(X)."#).unwrap();
            sim.node_mut(&a).watch("back");
            // Cut a -> b only: the forward leg drops, so nothing echoes.
            sim.set_cut(&a, &b, true);
            sim.inject(&a, int_event("go", "a", 1));
            sim.run_for(TimeDelta::from_millis(100));
            assert!(sim.node_mut(&a).watched("back").is_empty());
            // The reverse direction was never cut.
            sim.install(&b, r#"h back@"a"(X) :- poke@N(X)."#).unwrap();
            sim.inject(&b, int_event("poke", "b", 3));
            // Heal: round trips flow again.
            sim.set_cut(&a, &b, false);
            sim.inject(&a, int_event("go", "a", 2));
            sim.run_for(TimeDelta::from_millis(100));
            watched(sim, &a, "back")
        });
        assert_eq!(back.len(), 2, "{back:?}");
        assert!(back[0].ends_with("back(a, 3)"), "{back:?}");
        assert!(back[1].ends_with("back(a, 2)"), "{back:?}");
    }

    #[test]
    fn message_counters_track_sends() {
        let sent = on_every_engine(SimConfig::default(), unstaggered(), 5, |sim| {
            let a = sim.add_node("a");
            let _b = sim.add_node("b");
            sim.install(&a, r#"g probe@"b"(E) :- periodic@N(E, 2)."#)
                .unwrap();
            sim.run_for(TimeDelta::from_secs(10));
            vec![sim.net_stats().sent_by(&a).to_string()]
        });
        assert_eq!(sent, ["5"]);
    }

    /// `p2ql run --latency 0`: with one shard there is nobody to wait
    /// for, so a zero-latency fabric still makes progress.
    #[test]
    fn zero_latency_runs_on_one_shard() {
        let net = SimConfig {
            latency: TimeDelta::ZERO,
            ..Default::default()
        };
        let scenario: Scenario = |sim| {
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            sim.install(&a, r#"f out@"b"(E) :- periodic@N(E, 1)."#)
                .unwrap();
            sim.install(&b, r#"g back@"a"(E) :- out@N(E)."#).unwrap();
            sim.node_mut(&a).watch("back");
            sim.run_for(TimeDelta::from_secs(3));
            watched(sim, &a, "back")
        };
        let want = scenario(&mut SequentialOracle::new(net.clone(), unstaggered(), 6));
        assert_eq!(want.len(), 3);
        assert_eq!(scenario(&mut SimHarness::new(net, unstaggered(), 6)), want);
    }

    /// Shard counters surface through `sysStat` after a run — when there
    /// is more than one shard to tell apart.
    #[test]
    fn shard_stats_reach_introspection() {
        fn shard_rows(sim: &mut dyn Population) -> Vec<String> {
            let a = sim.add_node("a");
            let _b = sim.add_node("b");
            sim.install(&a, r#"g probe@"b"(E) :- periodic@N(E, 2)."#)
                .unwrap();
            sim.run_for(TimeDelta::from_secs(10));
            let now = sim.now();
            let node = sim.node_mut(&a);
            node.refresh_introspection(now);
            let rows = node.table_scan(crate::introspect::SYS_STAT, now);
            rows.iter()
                .filter_map(|t| t.get(1).map(|v| format!("{v}")))
                .filter(|k| k.contains("shard."))
                .collect()
        }
        let keys = shard_rows(&mut ParallelHarness::with_seed(5, 2));
        for want in [
            "shard.id",
            "shard.events",
            "shard.barrier_waits",
            "shard.mailbox_envelopes",
        ] {
            assert!(
                keys.iter().any(|k| k.contains(want)),
                "sysStat missing {want}: {keys:?}"
            );
        }
        assert!(shard_rows(&mut SimHarness::with_seed(5)).is_empty());
    }
}
