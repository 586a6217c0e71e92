//! Canonical byte encoding of [`Experiment`] values.
//!
//! The vendored `serde` stand-in is marker-only (see `crates/compat`),
//! so the wire format is hand-rolled: a fixed-layout, little-endian,
//! tag-discriminated encoding with a schema version up front. It is
//! *canonical* — equal experiments encode to identical bytes, floats
//! round-trip by exact bit pattern (`f64::to_bits`, including `-0.0`
//! and NaN payloads), and there is no map/hash iteration anywhere — so
//! the bytes double as a portable cache key and as the experiment field
//! of `--list` lines and queue entries (hex-armored, one experiment per
//! line).
//!
//! Schema evolution: bump [`ENCODING_VERSION`] whenever the layout *or
//! the meaning* of any encoded field changes; decoders reject foreign
//! versions and every derived cache key changes with the version, so
//! stale cells can never be served across a schema change.

use std::fmt;

use gtt_net::{LinkModel, NodeId, Position, TopologyBuilder};
use gtt_orchestra::OrchestraConfig;
use gtt_sim::SimDuration;

use gt_tsch::{GameWeights, GtTschConfig};

use crate::overlay::{DutyCycleBudget, NoiseBurst, Overlay, StepMobility, WaypointHop};
use crate::scenario::Scenario;
use crate::spec::{ScenarioSpec, TopologySpec};
use crate::{Experiment, RunSpec, SchedulerKind};

/// Version of the canonical encoding. Part of every encoded experiment
/// (and therefore of every cache key derived from one).
pub const ENCODING_VERSION: u16 = 2;

/// Leading magic of every encoded experiment.
const MAGIC: &[u8; 4] = b"GTTX";

/// Why a byte string failed to decode as an [`Experiment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// The input does not start with the experiment magic.
    BadMagic,
    /// The input was produced by a different schema version.
    UnsupportedVersion(u16),
    /// An enum discriminant byte had no matching variant.
    BadTag {
        /// Which discriminated field was being read.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Bytes remained after the experiment was fully decoded.
    TrailingBytes,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// Hex armor contained a non-hex character or odd length.
    BadHex,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated experiment encoding"),
            DecodeError::BadMagic => write!(f, "not an encoded experiment (bad magic)"),
            DecodeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported encoding schema version {v} (this build: {ENCODING_VERSION})"
                )
            }
            DecodeError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after experiment"),
            DecodeError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            DecodeError::BadHex => write!(f, "invalid hex armor"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian byte sink.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// `usize` fields travel as `u64` so the encoding is identical on
    /// every platform.
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Exact bit pattern — `-0.0`, infinities and NaN payloads all
    /// round-trip.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn duration(&mut self, v: SimDuration) {
        self.u64(v.as_micros());
    }
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Little-endian byte source.
struct Dec<'a> {
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn usize(&mut self) -> Result<usize, DecodeError> {
        Ok(self.u64()? as usize)
    }
    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn duration(&mut self) -> Result<SimDuration, DecodeError> {
        Ok(SimDuration::from_micros(self.u64()?))
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
    /// A safe `Vec` pre-allocation for `n` declared elements of at
    /// least `min_elem` bytes each: a corrupted length prefix must
    /// surface as [`DecodeError::Truncated`] a few elements in, not as
    /// a multi-gigabyte `with_capacity` abort before any byte is read.
    fn capacity_for(&self, n: usize, min_elem: usize) -> usize {
        n.min(self.rest.len() / min_elem.max(1))
    }
}

fn enc_link_model(e: &mut Enc, m: &LinkModel) {
    match *m {
        LinkModel::Perfect => e.u8(0),
        LinkModel::DistanceFalloff { plateau, edge_prr } => {
            e.u8(1);
            e.f64(plateau);
            e.f64(edge_prr);
        }
        LinkModel::Fixed(p) => {
            e.u8(2);
            e.f64(p);
        }
    }
}

fn dec_link_model(d: &mut Dec) -> Result<LinkModel, DecodeError> {
    Ok(match d.u8()? {
        0 => LinkModel::Perfect,
        1 => LinkModel::DistanceFalloff {
            plateau: d.f64()?,
            edge_prr: d.f64()?,
        },
        2 => LinkModel::Fixed(d.f64()?),
        tag => {
            return Err(DecodeError::BadTag {
                what: "link model",
                tag,
            })
        }
    })
}

fn enc_scenario_spec(e: &mut Enc, s: &ScenarioSpec) {
    match &s.link {
        None => e.u8(0),
        Some(m) => {
            e.u8(1);
            enc_link_model(e, m);
        }
    }
    match &s.topology {
        TopologySpec::SingleDodag { n } => {
            e.u8(0);
            e.usize(*n);
        }
        TopologySpec::TwoDodag { nodes_per_dodag } => {
            e.u8(1);
            e.usize(*nodes_per_dodag);
        }
        TopologySpec::Line { n, spacing } => {
            e.u8(2);
            e.usize(*n);
            e.f64(*spacing);
        }
        TopologySpec::Star { leaves } => {
            e.u8(3);
            e.usize(*leaves);
        }
        TopologySpec::Grid {
            cols,
            rows,
            spacing,
        } => {
            e.u8(4);
            e.usize(*cols);
            e.usize(*rows);
            e.f64(*spacing);
        }
        TopologySpec::LargeGrid => e.u8(5),
        TopologySpec::LargeStar => e.u8(6),
        TopologySpec::InterferenceGrid => e.u8(7),
        TopologySpec::Random { n, side, seed } => {
            e.u8(8);
            e.usize(*n);
            e.f64(*side);
            e.u64(*seed);
        }
        TopologySpec::Custom(scenario) => {
            e.u8(9);
            e.str(&scenario.name);
            let topo = &scenario.topology;
            e.f64(topo.range());
            e.f64(topo.interference_factor());
            enc_link_model(e, &topo.link_model());
            e.u32(topo.len() as u32);
            for id in topo.node_ids() {
                let p = topo.position(id);
                e.f64(p.x);
                e.f64(p.y);
            }
            let overrides: Vec<_> = topo.prr_overrides().collect();
            e.u32(overrides.len() as u32);
            for ((a, b), prr) in overrides {
                e.u16(a.raw());
                e.u16(b.raw());
                e.f64(prr);
            }
            e.u32(scenario.roots.len() as u32);
            for r in &scenario.roots {
                e.u16(r.raw());
            }
        }
        TopologySpec::City {
            dodags,
            nodes_per_dodag,
        } => {
            e.u8(10);
            e.usize(*dodags);
            e.usize(*nodes_per_dodag);
        }
    }
}

fn dec_scenario_spec(d: &mut Dec) -> Result<ScenarioSpec, DecodeError> {
    let link = match d.u8()? {
        0 => None,
        1 => Some(dec_link_model(d)?),
        tag => {
            return Err(DecodeError::BadTag {
                what: "link override",
                tag,
            })
        }
    };
    let topology = match d.u8()? {
        0 => TopologySpec::SingleDodag { n: d.usize()? },
        1 => TopologySpec::TwoDodag {
            nodes_per_dodag: d.usize()?,
        },
        2 => TopologySpec::Line {
            n: d.usize()?,
            spacing: d.f64()?,
        },
        3 => TopologySpec::Star { leaves: d.usize()? },
        4 => TopologySpec::Grid {
            cols: d.usize()?,
            rows: d.usize()?,
            spacing: d.f64()?,
        },
        5 => TopologySpec::LargeGrid,
        6 => TopologySpec::LargeStar,
        7 => TopologySpec::InterferenceGrid,
        8 => TopologySpec::Random {
            n: d.usize()?,
            side: d.f64()?,
            seed: d.u64()?,
        },
        9 => {
            let name = d.str()?;
            let range = d.f64()?;
            let interference_factor = d.f64()?;
            let link_model = dec_link_model(d)?;
            let n = d.u32()? as usize;
            let mut builder = TopologyBuilder::new(range)
                .interference_factor(interference_factor)
                .link_model(link_model);
            for _ in 0..n {
                builder = builder.node(Position::new(d.f64()?, d.f64()?));
            }
            let n_overrides = d.u32()? as usize;
            for _ in 0..n_overrides {
                let a = NodeId::new(d.u16()?);
                let b = NodeId::new(d.u16()?);
                builder = builder.link_prr(a, b, d.f64()?);
            }
            let n_roots = d.u32()? as usize;
            let mut roots = Vec::with_capacity(d.capacity_for(n_roots, 2));
            for _ in 0..n_roots {
                roots.push(NodeId::new(d.u16()?));
            }
            TopologySpec::Custom(Box::new(Scenario {
                name,
                topology: builder.build(),
                roots,
            }))
        }
        // Tag 10 (`City`) is new in schema v2; v1 streams can never
        // carry it because `Experiment::decode` rejects foreign versions
        // before any tag is read.
        10 => TopologySpec::City {
            dodags: d.usize()?,
            nodes_per_dodag: d.usize()?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                what: "topology",
                tag,
            })
        }
    };
    Ok(ScenarioSpec { topology, link })
}

fn enc_scheduler(e: &mut Enc, s: &SchedulerKind) {
    match s {
        SchedulerKind::GtTsch(cfg) => {
            e.u8(0);
            e.u16(cfg.slotframe_len);
            e.u16(cfg.broadcast_slots);
            e.u16(cfg.shared_slots);
            e.f64(cfg.weights.alpha);
            e.f64(cfg.weights.beta);
            e.f64(cfg.weights.gamma);
            e.f64(cfg.zeta);
            e.u8(cfg.fbcast);
            e.u16(cfg.rx_advertise_cap);
            e.u16(cfg.delete_slack);
            e.bool(cfg.hash_channels);
        }
        SchedulerKind::Orchestra(cfg) => {
            e.u8(1);
            e.u16(cfg.eb_len);
            e.u16(cfg.common_len);
            e.u16(cfg.unicast_len);
            e.bool(cfg.sender_based);
        }
        SchedulerKind::Minimal { slotframe_len } => {
            e.u8(2);
            e.u16(*slotframe_len);
        }
    }
}

fn dec_scheduler(d: &mut Dec) -> Result<SchedulerKind, DecodeError> {
    Ok(match d.u8()? {
        0 => SchedulerKind::GtTsch(GtTschConfig {
            slotframe_len: d.u16()?,
            broadcast_slots: d.u16()?,
            shared_slots: d.u16()?,
            weights: GameWeights {
                alpha: d.f64()?,
                beta: d.f64()?,
                gamma: d.f64()?,
            },
            zeta: d.f64()?,
            fbcast: d.u8()?,
            rx_advertise_cap: d.u16()?,
            delete_slack: d.u16()?,
            hash_channels: d.bool()?,
        }),
        1 => SchedulerKind::Orchestra(OrchestraConfig {
            eb_len: d.u16()?,
            common_len: d.u16()?,
            unicast_len: d.u16()?,
            sender_based: d.bool()?,
        }),
        2 => SchedulerKind::Minimal {
            slotframe_len: d.u16()?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                what: "scheduler",
                tag,
            })
        }
    })
}

fn enc_overlay(e: &mut Enc, o: &Overlay) {
    match o {
        Overlay::Noise(n) => {
            e.u8(0);
            e.duration(n.quiet);
            e.duration(n.burst);
            e.f64(n.prr_factor);
        }
        Overlay::Mobility(m) => {
            e.u8(1);
            e.u32(m.hops.len() as u32);
            for h in &m.hops {
                e.duration(h.at);
                e.u16(h.node.raw());
                e.f64(h.to.x);
                e.f64(h.to.y);
            }
        }
        Overlay::DutyCycle(b) => {
            e.u8(2);
            e.duration(b.window);
            e.duration(b.check);
            e.f64(b.max_duty_percent);
        }
    }
}

fn dec_overlay(d: &mut Dec) -> Result<Overlay, DecodeError> {
    Ok(match d.u8()? {
        0 => Overlay::Noise(NoiseBurst {
            quiet: d.duration()?,
            burst: d.duration()?,
            prr_factor: d.f64()?,
        }),
        1 => {
            let n = d.u32()? as usize;
            let mut hops = Vec::with_capacity(d.capacity_for(n, 26));
            for _ in 0..n {
                hops.push(WaypointHop {
                    at: d.duration()?,
                    node: NodeId::new(d.u16()?),
                    to: Position::new(d.f64()?, d.f64()?),
                });
            }
            Overlay::Mobility(StepMobility { hops })
        }
        2 => Overlay::DutyCycle(DutyCycleBudget {
            window: d.duration()?,
            check: d.duration()?,
            max_duty_percent: d.f64()?,
        }),
        tag => {
            return Err(DecodeError::BadTag {
                what: "overlay",
                tag,
            })
        }
    })
}

impl Experiment {
    /// Encodes the experiment into its canonical byte form.
    ///
    /// Equal experiments produce identical bytes (there is no ambient
    /// state, no map iteration, no pointer-dependent ordering), so the
    /// result is a stable wire format *and* the input of cache-key
    /// hashing. Floats are stored as exact bit patterns.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_version(ENCODING_VERSION)
    }

    /// [`Experiment::encode`] with an explicit schema version, for
    /// schema-evolution tests (a bumped version must invalidate every
    /// derived cache key). Production callers use [`Experiment::encode`].
    pub fn encode_with_version(&self, version: u16) -> Vec<u8> {
        let mut e = Enc {
            buf: Vec::with_capacity(128),
        };
        e.buf.extend_from_slice(MAGIC);
        e.u16(version);
        enc_scenario_spec(&mut e, &self.scenario);
        enc_scheduler(&mut e, &self.scheduler);
        let RunSpec {
            traffic_ppm,
            warmup_secs,
            measure_secs,
            seed,
            low_power,
        } = self.run;
        e.f64(traffic_ppm);
        e.u64(warmup_secs);
        e.u64(measure_secs);
        e.u64(seed);
        e.bool(low_power);
        e.u32(self.overlays.len() as u32);
        for o in &self.overlays {
            enc_overlay(&mut e, o);
        }
        e.buf
    }

    /// Decodes an experiment from its canonical byte form, rejecting
    /// foreign schema versions and trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Experiment, DecodeError> {
        let mut d = Dec { rest: bytes };
        if d.take(MAGIC.len())? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = d.u16()?;
        if version != ENCODING_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let scenario = dec_scenario_spec(&mut d)?;
        let scheduler = dec_scheduler(&mut d)?;
        let run = RunSpec {
            traffic_ppm: d.f64()?,
            warmup_secs: d.u64()?,
            measure_secs: d.u64()?,
            seed: d.u64()?,
            low_power: d.bool()?,
        };
        let n = d.u32()? as usize;
        let mut overlays = Vec::with_capacity(d.capacity_for(n, 25));
        for _ in 0..n {
            overlays.push(dec_overlay(&mut d)?);
        }
        if !d.rest.is_empty() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(Experiment {
            scenario,
            scheduler,
            run,
            overlays,
            // Trace output is an observer concern, not part of the
            // experiment identity — never encoded, always None here.
            trace: None,
        })
    }

    /// The canonical encoding as lowercase hex — the one-line text form
    /// used by `--list` output and queue entries.
    pub fn encode_hex(&self) -> String {
        let bytes = self.encode();
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
            out.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
        }
        out
    }

    /// Decodes the hex form produced by [`Experiment::encode_hex`].
    pub fn decode_hex(hex: &str) -> Result<Experiment, DecodeError> {
        let hex = hex.trim();
        if hex.len() % 2 != 0 {
            return Err(DecodeError::BadHex);
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        let digits = hex.as_bytes();
        for pair in digits.chunks_exact(2) {
            let hi = (pair[0] as char).to_digit(16).ok_or(DecodeError::BadHex)?;
            let lo = (pair[1] as char).to_digit(16).ok_or(DecodeError::BadHex)?;
            bytes.push(((hi << 4) | lo) as u8);
        }
        Experiment::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Overlay;

    /// An experiment touching every encoder branch at once, with floats
    /// picked to catch any bit-pattern sloppiness.
    fn kitchen_sink() -> Experiment {
        let custom = Scenario {
            name: "diamond".into(),
            topology: TopologyBuilder::new(40.0)
                .interference_factor(1.5)
                .link_model(LinkModel::DistanceFalloff {
                    plateau: 0.6,
                    edge_prr: 0.8,
                })
                .node(Position::new(0.0, -0.0))
                .node(Position::new(30.0, 18.0))
                .node(Position::new(30.0, -18.0))
                .link_prr(NodeId::new(0), NodeId::new(2), 0.1 + 0.2) // 0.30000000000000004
                .build(),
            roots: vec![NodeId::new(0)],
        };
        Experiment {
            scenario: ScenarioSpec::custom(custom).with_link_model(LinkModel::Fixed(0.75)),
            scheduler: SchedulerKind::GtTsch(GtTschConfig {
                weights: GameWeights {
                    alpha: 1.0,
                    beta: f64::MIN_POSITIVE,
                    gamma: -0.0,
                },
                zeta: 0.3,
                ..GtTschConfig::paper_default()
            }),
            run: RunSpec {
                traffic_ppm: 60.0 / 7.0,
                warmup_secs: 1,
                measure_secs: u64::MAX,
                seed: 0x0123_4567_89ab_cdef,
                low_power: true,
            },
            overlays: vec![
                Overlay::Noise(NoiseBurst::wifi_like()),
                Overlay::Mobility(StepMobility::new().hop(
                    SimDuration::from_millis(1_500),
                    NodeId::new(2),
                    Position::new(-1.0, f64::MAX),
                )),
                Overlay::DutyCycle(DutyCycleBudget {
                    window: SimDuration::from_secs(60),
                    check: SimDuration::from_secs(5),
                    max_duty_percent: 2.5,
                }),
            ],
            trace: None,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let exp = kitchen_sink();
        let decoded = Experiment::decode(&exp.encode()).expect("decodes");
        assert_eq!(decoded, exp);
        // Exact f64 bits, not just PartialEq (which -0.0 == 0.0 would
        // satisfy): re-encoding the decoded value must be byte-identical.
        assert_eq!(decoded.encode(), exp.encode());
        // Hex armor round-trips too.
        assert_eq!(Experiment::decode_hex(&exp.encode_hex()).unwrap(), exp);
    }

    #[test]
    fn negative_zero_survives() {
        let mut exp = crate::Experiment::new(ScenarioSpec::star(2), SchedulerKind::minimal(8));
        exp.run.traffic_ppm = -0.0;
        let decoded = Experiment::decode(&exp.encode()).unwrap();
        assert_eq!(decoded.run.traffic_ppm.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn every_builtin_topology_round_trips() {
        let specs = [
            ScenarioSpec::single_dodag(7),
            ScenarioSpec::two_dodag(6),
            ScenarioSpec::line(5, 30.0),
            ScenarioSpec::star(6),
            ScenarioSpec::grid(3, 4, 30.0),
            ScenarioSpec::large_grid(),
            ScenarioSpec::large_star(),
            ScenarioSpec::interference_grid(),
            ScenarioSpec::random(10, 120.0, 5),
            ScenarioSpec::city(4, 25),
        ];
        for spec in specs {
            let exp = crate::Experiment::new(spec, SchedulerKind::orchestra_default());
            assert_eq!(Experiment::decode(&exp.encode()).unwrap(), exp);
        }
    }

    #[test]
    fn city_spec_is_rejected_from_older_version_streams() {
        // `City` (tag 10) arrived with schema v2. A v1 decoder could
        // misparse its bytes, so the version gate — checked before any
        // tag — must wholesale-reject streams stamped with an older
        // version rather than attempt tag-level decoding.
        let exp = crate::Experiment::new(ScenarioSpec::city(10, 100), SchedulerKind::minimal(8));
        let v1 = exp.encode_with_version(1);
        assert_eq!(
            Experiment::decode(&v1),
            Err(DecodeError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn custom_topology_rebuilds_identically() {
        let exp = kitchen_sink();
        let decoded = Experiment::decode(&exp.encode()).unwrap();
        // The rebuilt Scenario must be equal in full — positions, link
        // model, overrides, audibility — not just spec-equal.
        assert_eq!(decoded.scenario.build(), exp.scenario.build());
    }

    #[test]
    fn foreign_version_is_rejected() {
        let exp = kitchen_sink();
        let bumped = exp.encode_with_version(ENCODING_VERSION + 1);
        assert_eq!(
            Experiment::decode(&bumped),
            Err(DecodeError::UnsupportedVersion(ENCODING_VERSION + 1))
        );
    }

    #[test]
    fn corruption_is_detected() {
        let exp = kitchen_sink();
        let bytes = exp.encode();
        assert_eq!(Experiment::decode(&bytes[..3]), Err(DecodeError::Truncated));
        assert_eq!(
            Experiment::decode(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        );
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            Experiment::decode(&extended),
            Err(DecodeError::TrailingBytes)
        );
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert_eq!(Experiment::decode(&wrong_magic), Err(DecodeError::BadMagic));
        assert_eq!(Experiment::decode_hex("abc"), Err(DecodeError::BadHex));
        assert_eq!(Experiment::decode_hex("zz"), Err(DecodeError::BadHex));
    }

    #[test]
    fn corrupted_length_prefix_fails_cleanly() {
        // A flipped hop-count byte must surface as `Truncated`, not as
        // a multi-gigabyte pre-allocation abort: `--list` lines and
        // queue entries are plain text on disk, torn lines happen.
        let exp = crate::Experiment::new(ScenarioSpec::star(2), SchedulerKind::minimal(8))
            .with_overlay(Overlay::Mobility(StepMobility::new().hop(
                SimDuration::from_secs(1),
                NodeId::new(1),
                Position::ORIGIN,
            )));
        let mut bytes = exp.encode();
        // The single hop (26 bytes) is the tail; the u32 hop count sits
        // immediately before it.
        let count_at = bytes.len() - 26 - 4;
        assert_eq!(bytes[count_at], 1, "hop count located");
        bytes[count_at..count_at + 4].copy_from_slice(&0xffff_fff0u32.to_le_bytes());
        assert_eq!(Experiment::decode(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn encoding_is_canonical_across_equal_values() {
        // Two independently-constructed equal experiments byte-match.
        assert_eq!(kitchen_sink().encode(), kitchen_sink().encode());
        // And a semantic difference anywhere changes the bytes.
        let mut other = kitchen_sink();
        other.run.seed += 1;
        assert_ne!(other.encode(), kitchen_sink().encode());
    }
}
