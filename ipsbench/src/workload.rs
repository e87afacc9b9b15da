//! Workload definitions, seeded trace generation and input fingerprints.
//!
//! Every workload is built in-process from `sd_traffic`: the benign
//! generator, the evasion catalogue and the mixer for the traffic, and the
//! rule-corpus generator for the 10k-rule set. Nothing here is timed.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use sd_flow::FlowKey;
use sd_ips::rules::{RuleSet, DEMO_RULES};
use sd_traffic::benign::{BenignConfig, BenignGenerator};
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::mixer::{mix, AttackLabel};
use sd_traffic::rulegen::{generate_rule_corpus, RuleCorpusConfig};
use sd_traffic::victim::VictimConfig;

use crate::digest::Fnv;

/// Seed the checked-in fingerprints are recorded for.
pub const PINNED_SEED: u64 = 1;

/// Rule-corpus seed of `rules10k-mixed`. The rule set is part of the
/// deployment, not of the traffic, so it does not vary with `--seed`.
const CORPUS_SEED: u64 = 0xD0_5E_ED;

/// Recorded input facts, one line per workload and size: the `input`
/// line a run of the pinned seed prints, without the word `input`.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DemoMixed,
    DemoBulk,
    Rules10kMixed,
    DemoMixedSharded,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::DemoMixed,
        Kind::DemoBulk,
        Kind::Rules10kMixed,
        Kind::DemoMixedSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DemoMixed => "demo-mixed",
            Kind::DemoBulk => "demo-bulk",
            Kind::Rules10kMixed => "rules10k-mixed",
            Kind::DemoMixedSharded => "demo-mixed-sharded",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Engine shards: `None` drives `SplitDetect`, `Some(n)` drives
    /// `ShardedSplitDetect` with `n` shards.
    pub fn shards(self) -> Option<usize> {
        match self {
            Kind::DemoMixedSharded => Some(1),
            _ => None,
        }
    }

    fn has_attacks(self) -> bool {
        self != Kind::DemoBulk
    }
}

/// Trace and rule-set dimensions. `Full` is what the benchmark measures;
/// `Smoke` runs every code path in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    fn flows(self) -> usize {
        match self {
            Size::Full => 10_000,
            Size::Smoke => 300,
        }
    }

    fn attacks(self) -> usize {
        match self {
            Size::Full => 40,
            Size::Smoke => 13,
        }
    }

    fn corpus_rules(self) -> usize {
        match self {
            Size::Full => 10_000,
            Size::Smoke => 300,
        }
    }
}

/// Mean gap between benign flow arrivals. The generator's default (500 µs)
/// keeps only a handful of flows open at once; 1 µs overlaps thousands.
const ARRIVAL_GAP_US: f64 = 1.0;

/// One generated workload: rules text, packets and ground truth.
pub struct Workload {
    pub kind: Kind,
    pub rules_text: String,
    /// Rule index → rule, for attack signatures.
    pub rules: RuleSet,
    /// IPv4 packets in offer order.
    pub packets: Vec<Vec<u8>>,
    /// Labelled attack flows.
    pub attacks: Vec<AttackLabel>,
    /// Per labelled attack, the index of its last packet in `packets`.
    pub attack_last_packet: Vec<usize>,
}

impl Workload {
    pub fn generate(kind: Kind, size: Size, seed: u64) -> Workload {
        let rules_text = match kind {
            Kind::Rules10kMixed => {
                generate_rule_corpus(&RuleCorpusConfig::sized(size.corpus_rules(), CORPUS_SEED))
            }
            _ => DEMO_RULES.to_string(),
        };
        let rules = sd_ips::parse_rules(&rules_text).expect("generated rules parse");
        let bulk = kind == Kind::DemoBulk;
        let benign = BenignGenerator::new(BenignConfig {
            seed,
            flows: size.flows(),
            mean_arrival_gap_us: ARRIVAL_GAP_US,
            reorder_prob: if bulk {
                0.0
            } else {
                BenignConfig::default().reorder_prob
            },
            interactive_fraction: if bulk {
                0.0
            } else {
                BenignConfig::default().interactive_fraction
            },
            ..Default::default()
        })
        .generate();
        let attacks = if kind.has_attacks() {
            attack_sequences(&rules, size.attacks(), seed)
        } else {
            Vec::new()
        };
        let labelled = mix(benign, attacks, seed ^ 0x5eed);
        let packets: Vec<Vec<u8>> = labelled.trace.packets.into_iter().map(|p| p.data).collect();
        let mut last: HashMap<FlowKey, usize> = HashMap::new();
        for (i, p) in packets.iter().enumerate() {
            if let Some(k) = flow_key(p) {
                last.insert(k, i);
            }
        }
        let attack_last_packet = labelled
            .attacks
            .iter()
            .map(|a| *last.get(&a.flow).expect("attack flow has packets"))
            .collect();
        Workload {
            kind,
            rules_text,
            rules,
            packets,
            attacks: labelled.attacks,
            attack_last_packet,
        }
    }

    pub fn wire_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.len() as u64).sum()
    }

    /// The workload's input facts.
    pub fn facts(&self, pieces: usize) -> Facts {
        let mut first_last: HashMap<FlowKey, (usize, usize)> = HashMap::new();
        let mut digest = Fnv::new();
        for (i, p) in self.packets.iter().enumerate() {
            digest.u64(p.len() as u64);
            digest.bytes(p);
            if let Some(k) = flow_key(p) {
                first_last.entry(k).or_insert((i, i)).1 = i;
            }
        }
        for a in &self.attacks {
            digest.bytes(&a.flow.to_bytes());
            digest.u64(a.signature as u64);
            digest.bytes(a.strategy.as_bytes());
        }
        // Peak number of flows between their first and last packet.
        let mut edges: Vec<(usize, i32)> = Vec::with_capacity(2 * first_last.len());
        for (s, e) in first_last.values() {
            edges.push((*s, 1));
            edges.push((*e + 1, -1));
        }
        edges.sort_unstable();
        let (mut open, mut peak) = (0i32, 0i32);
        for (_, d) in edges {
            open += d;
            peak = peak.max(open);
        }
        let mut per_strategy = BTreeMap::new();
        for a in &self.attacks {
            *per_strategy.entry(a.strategy).or_insert(0usize) += 1;
        }
        Facts {
            packets: self.packets.len(),
            flows: first_last.len(),
            peak_open_flows: peak as usize,
            wire_bytes: self.wire_bytes(),
            attacks: self.attacks.len(),
            per_strategy,
            rules: self.rules.rules.len(),
            pieces,
            digest: digest.finish(),
        }
    }
}

/// Labelled attack packet sequences cycling through the whole evasion
/// catalogue, the way `sd generate` builds them.
fn attack_sequences(
    rules: &RuleSet,
    count: usize,
    seed: u64,
) -> Vec<(Vec<Vec<u8>>, usize, &'static str)> {
    let victim = VictimConfig::default();
    let catalog = EvasionStrategy::catalog();
    (0..count)
        .map(|i| {
            let strategy = catalog[i % catalog.len()];
            let rule_idx = i % rules.rules.len();
            let mut spec = AttackSpec::simple(rules.rules[rule_idx].signature_bytes().to_vec());
            spec.client.1 = 40_000 + i as u16;
            (
                generate(&spec, strategy, victim, seed + i as u64),
                rule_idx,
                strategy.name(),
            )
        })
        .collect()
}

/// A packet's canonical 5-tuple key (the key the mixer labels with).
pub fn flow_key(packet: &[u8]) -> Option<FlowKey> {
    let parsed = sd_packet::parse::parse_ipv4(packet).ok()?;
    FlowKey::from_parsed(&parsed).map(|(k, _)| k)
}

/// Input facts printed by every run and checked for the pinned seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    pub packets: usize,
    pub flows: usize,
    pub peak_open_flows: usize,
    pub wire_bytes: u64,
    pub attacks: usize,
    pub per_strategy: BTreeMap<&'static str, usize>,
    pub rules: usize,
    pub pieces: usize,
    pub digest: u64,
}

impl Facts {
    /// One-line `key=value` rendering; the fingerprint file stores these.
    pub fn line(&self) -> String {
        let mut s = format!(
            "packets={} flows={} peak_open_flows={} wire_bytes={} attacks={} rules={} pieces={} digest={:016x}",
            self.packets,
            self.flows,
            self.peak_open_flows,
            self.wire_bytes,
            self.attacks,
            self.rules,
            self.pieces,
            self.digest
        );
        for (name, n) in &self.per_strategy {
            let _ = write!(s, " {name}={n}");
        }
        s
    }
}

/// Compare the pinned seed's facts with the recorded line for this
/// workload and size. `Err` carries a description of the difference.
pub fn check_fingerprint(kind: Kind, size: Size, facts: &Facts) -> Result<(), String> {
    let prefix = format!("{} {} seed={} ", kind.name(), size.name(), PINNED_SEED);
    let recorded = FINGERPRINTS
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .ok_or_else(|| format!("no fingerprint recorded for `{}`", prefix.trim_end()))?;
    let got = facts.line();
    if recorded.trim() == got {
        Ok(())
    } else {
        Err(format!(
            "fingerprint mismatch for `{}`:\n  recorded {}\n  got      {got}",
            prefix.trim_end(),
            recorded.trim()
        ))
    }
}
