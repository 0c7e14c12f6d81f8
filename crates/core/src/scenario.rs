//! `Scenario` — the declarative, validated, JSON-round-trippable
//! experiment description.
//!
//! A scenario is the *data* form of an experiment: everything an
//! [`ExperimentConfig`] pins down, plus a display name, expressible as
//! a `scenario-v1` JSON document (see `docs/SCENARIOS.md` for the field
//! reference). The type upholds one invariant: **a `Scenario` that
//! exists is valid**. Both constructors — [`Scenario::from_config`] and
//! [`Scenario::from_json_str`] — run the full validation and return a
//! typed [`ScenarioError`] instead of letting a bad parameter panic
//! mid-run, which is what lets the `repro` CLI surface config mistakes
//! as `exit(2)` with a message naming the offending field.
//!
//! Round-trip contract: `serialize → parse → serialize` is
//! byte-identical (canonical field order, shortest-round-trip floats,
//! full form with defaults materialized), and a parsed scenario's
//! config equals the original — so a scenario file, or a serialized
//! harness cell shipped to a remote worker, reproduces bit-identical
//! results.

use crate::config::ExperimentConfig;
use crate::TopologySpec;
use irn_net::{Bandwidth, LoadBalancing, PfcConfig};
use irn_sim::{Duration, Time};
use irn_transport::cc::CcKind;
use irn_transport::config::TransportKind;
use irn_workload::model::{HORIZON_NS, MAX_FLOWS};
use irn_workload::{
    AllreduceAlgo, Component, FlowSpec, Population, SizeDistribution, Start, TrafficCtx,
    TrafficError, TrafficModel,
};
use serde::json::{self, Value};
use serde::{DeError, Deserialize, Serialize};

/// The schema identifier every scenario document carries.
pub const SCENARIO_SCHEMA: &str = "scenario-v1";

/// A named, validated experiment description.
///
/// Construction always validates; see the module docs for the
/// invariant. The config is exposed read-only ([`Scenario::config`]) so
/// the only ways to obtain a `Scenario` keep it valid.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    cfg: ExperimentConfig,
}

impl Scenario {
    /// Wrap a config under a display name, validating every parameter.
    pub fn from_config(
        name: impl Into<String>,
        cfg: ExperimentConfig,
    ) -> Result<Scenario, ScenarioError> {
        let name = name.into();
        validate(&name, &cfg)?;
        Ok(Scenario { name, cfg })
    }

    /// Start a builder from the paper's §4.1 defaults.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            cfg: ExperimentConfig::paper_default(1000),
        }
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The validated experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Unwrap into the config.
    pub fn into_config(self) -> ExperimentConfig {
        self.cfg
    }

    /// This scenario re-keyed to a different seed (a seed swap cannot
    /// invalidate a valid scenario).
    pub fn with_seed(&self, seed: u64) -> Scenario {
        Scenario {
            name: self.name.clone(),
            cfg: self.cfg.clone().with_seed(seed),
        }
    }

    /// This scenario under a different display name (the config is
    /// unchanged, so only the name needs re-validating).
    pub fn with_name(&self, name: impl Into<String>) -> Result<Scenario, ScenarioError> {
        let name = name.into();
        if name.is_empty() {
            return Err(ScenarioError::EmptyName);
        }
        Ok(Scenario {
            name,
            cfg: self.cfg.clone(),
        })
    }

    /// A filesystem-safe version of the name: lowercase alphanumerics,
    /// `.`, `_` and `-`, with every other run of characters collapsed
    /// to a single `-`.
    pub fn slug(&self) -> String {
        slugify(&self.name)
    }

    /// Parse and validate a `scenario-v1` JSON document.
    pub fn from_json_str(text: &str) -> Result<Scenario, ScenarioError> {
        let v = json::from_str(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        Scenario::from_json_value(&v)
    }

    /// Parse and validate a `scenario-v1` value tree.
    pub fn from_json_value(v: &Value) -> Result<Scenario, ScenarioError> {
        // What the table reads is well-typed but not yet validated.
        let Scenario { name, cfg } = SCENARIO.read(v, "")?;
        Scenario::from_config(name, cfg)
    }

    /// Serialize to the canonical `scenario-v1` value tree (full form:
    /// every field present, defaults materialized, fixed order).
    pub fn to_json_value(&self) -> Value {
        SCENARIO.write(self)
    }

    /// Serialize to pretty-printed JSON text with a trailing newline
    /// (the on-disk scenario-file form).
    pub fn to_json_string(&self) -> String {
        let mut text = json::to_string_pretty(&self.to_json_value());
        text.push('\n');
        text
    }
}

impl Serialize for Scenario {
    fn to_json(&self) -> Value {
        self.to_json_value()
    }
}

impl Deserialize for Scenario {
    fn from_json(v: &Value) -> Result<Scenario, DeError> {
        Scenario::from_json_value(v).map_err(|e| DeError::new(e.to_string()))
    }
}

/// Why a scenario cannot describe a runnable experiment. Every
/// user-reachable configuration mistake surfaces as one of these (and
/// as `exit(2)` at the CLI) instead of a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The document is not valid JSON.
    Parse(String),
    /// A field is missing, has the wrong type, or is out of range for
    /// its primitive type (path included).
    Field(DeError),
    /// The document's `schema` field is not [`SCENARIO_SCHEMA`].
    UnknownSchema {
        /// What the document declared.
        found: String,
    },
    /// An object carries a field the schema does not define.
    UnknownField {
        /// Dotted path of the unknown field.
        field: String,
    },
    /// An object spells the same field twice (a JSON parser keeping
    /// either copy would hide the other from the reader).
    DuplicateField {
        /// Dotted path of the repeated field.
        field: String,
    },
    /// An enum-like field names an unknown alternative.
    UnknownName {
        /// Dotted path of the field.
        field: String,
        /// The unrecognized name.
        found: String,
        /// The accepted names.
        expected: &'static [&'static str],
    },
    /// The scenario name is empty.
    EmptyName,
    /// Fat-tree arity must be even and at least 2.
    OddFatTree {
        /// The offending arity.
        k: usize,
    },
    /// The topology has fewer than two hosts.
    TooFewHosts {
        /// The host count on offer.
        hosts: usize,
    },
    /// The topology has more hosts or directed links than the engine's
    /// 30-bit event fields can index, or its set-up state (routing
    /// tables and virtual output queues) would exceed
    /// [`MAX_SETUP_BYTES`].
    TopologyTooLarge {
        /// Hosts the topology describes.
        hosts: u128,
        /// Directed links the topology describes.
        links: u128,
        /// Bytes of routing tables and VOQs the fabric would allocate.
        setup_bytes: u128,
    },
    /// MTU must be at least one byte.
    ZeroMtu,
    /// Link bandwidth must be positive.
    ZeroBandwidth,
    /// Per-port buffering must be positive.
    ZeroBuffer,
    /// Per-port buffering must hold one maximum-size frame, else no
    /// packet can cross a switch and the run never completes.
    BufferBelowFrame {
        /// The offending buffer size.
        buffer_bytes: u64,
        /// One maximum frame: `mtu + 48 + extra_header`.
        frame: u64,
    },
    /// Under PFC, per-port buffering must exceed the pause headroom
    /// ([`PfcConfig::headroom`]), else no X-OFF threshold fits below it.
    BufferBelowPfcHeadroom {
        /// The offending buffer size.
        buffer_bytes: u64,
        /// `bandwidth × 2 × prop_delay` in bytes, plus two maximum frames.
        headroom: u64,
    },
    /// A stated instant or duration lies beyond the virtual-time
    /// horizon ([`HORIZON_NS`]).
    BeyondHorizon {
        /// The offending field.
        field: &'static str,
        /// Its value in nanoseconds.
        ns: u64,
    },
    /// A retransmission timeout must be at least 1 ns.
    ZeroRto {
        /// The offending field.
        field: &'static str,
    },
    /// Loss injection is a probability below 1 (1 would drop every
    /// packet and the run could never complete).
    LossOutOfRange {
        /// The offending probability.
        loss: f64,
    },
    /// The event budget must be positive.
    ZeroMaxEvents,
    /// The NACK threshold must be at least 1.
    ZeroNackThreshold,
    /// The traffic model is invalid.
    Traffic(TrafficError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse(msg) => write!(f, "{msg}"),
            ScenarioError::Field(e) => write!(f, "{e}"),
            ScenarioError::UnknownSchema { found } => {
                write!(f, "unknown schema '{found}', expected '{SCENARIO_SCHEMA}'")
            }
            ScenarioError::UnknownField { field } => {
                write!(f, "unknown field '{field}'")
            }
            ScenarioError::DuplicateField { field } => {
                write!(f, "duplicate field '{field}'")
            }
            ScenarioError::UnknownName {
                field,
                found,
                expected,
            } => write!(
                f,
                "at {field}: unknown name '{found}' (expected one of: {})",
                expected.join(", ")
            ),
            ScenarioError::EmptyName => write!(f, "scenario name must not be empty"),
            ScenarioError::OddFatTree { k } => {
                write!(f, "fat-tree arity must be even and >= 2, got k={k}")
            }
            ScenarioError::TooFewHosts { hosts } => {
                write!(f, "topology must have at least 2 hosts, has {hosts}")
            }
            ScenarioError::TopologyTooLarge {
                hosts,
                links,
                setup_bytes,
            } => write!(
                f,
                "topology describes {hosts} hosts, {links} directed links and \
                 {setup_bytes} bytes of routing and queue state, exceeding the \
                 engine's limits of {MAX_FLOWS} hosts or links and \
                 {MAX_SETUP_BYTES} bytes"
            ),
            ScenarioError::ZeroMtu => write!(f, "mtu must be at least 1 byte"),
            ScenarioError::ZeroBandwidth => write!(f, "bandwidth_mbps must be positive"),
            ScenarioError::ZeroBuffer => write!(f, "buffer_bytes must be positive"),
            ScenarioError::BufferBelowFrame {
                buffer_bytes,
                frame,
            } => write!(
                f,
                "buffer_bytes {buffer_bytes} cannot hold one maximum frame of {frame} bytes \
                 (mtu + 48 + extra_header)"
            ),
            ScenarioError::BufferBelowPfcHeadroom {
                buffer_bytes,
                headroom,
            } => write!(
                f,
                "buffer_bytes {buffer_bytes} must exceed the PFC headroom of {headroom} bytes \
                 (bandwidth × 2 × prop_delay + 2 maximum frames) when pfc is on"
            ),
            ScenarioError::BeyondHorizon { field, ns } => {
                let (field, ns) = (*field, *ns as u128);
                write!(f, "{}", TrafficError::BeyondHorizon { field, ns })
            }
            ScenarioError::ZeroRto { field } => write!(f, "{field} must be at least 1 ns"),
            ScenarioError::LossOutOfRange { loss } => {
                write!(f, "loss_injection must be in [0, 1), got {loss}")
            }
            ScenarioError::ZeroMaxEvents => write!(f, "max_events must be positive"),
            ScenarioError::ZeroNackThreshold => {
                write!(f, "nack_threshold must be at least 1")
            }
            ScenarioError::Traffic(e) => write!(f, "traffic: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TrafficError> for ScenarioError {
    fn from(e: TrafficError) -> ScenarioError {
        ScenarioError::Traffic(e)
    }
}

impl From<DeError> for ScenarioError {
    fn from(e: DeError) -> ScenarioError {
        ScenarioError::Field(e)
    }
}

/// Chained construction of a [`Scenario`] from the paper's defaults;
/// [`ScenarioBuilder::build`] runs the full validation.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    cfg: ExperimentConfig,
}

impl ScenarioBuilder {
    /// Replace the network shape.
    pub fn topology(mut self, t: TopologySpec) -> Self {
        self.cfg.topology = t;
        self
    }

    /// Replace the traffic model.
    pub fn traffic(mut self, t: TrafficModel) -> Self {
        self.cfg.traffic = t;
        self
    }

    /// Select the transport preset.
    pub fn transport(mut self, t: TransportKind) -> Self {
        self.cfg.transport = t;
        self
    }

    /// Enable/disable PFC.
    pub fn pfc(mut self, pfc: bool) -> Self {
        self.cfg.pfc = pfc;
        self
    }

    /// Select congestion control.
    pub fn cc(mut self, cc: CcKind) -> Self {
        self.cfg.cc = cc;
        self
    }

    /// Replace the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Escape hatch for the long tail of knobs: mutate the config
    /// directly (still validated at [`ScenarioBuilder::build`]).
    pub fn configure(mut self, f: impl FnOnce(&mut ExperimentConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Validate and produce the scenario.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        Scenario::from_config(self.name, self.cfg)
    }
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

fn validate(name: &str, cfg: &ExperimentConfig) -> Result<(), ScenarioError> {
    if name.is_empty() {
        return Err(ScenarioError::EmptyName);
    }
    if let TopologySpec::FatTree(k) = cfg.topology {
        if k < 2 || k % 2 != 0 {
            return Err(ScenarioError::OddFatTree { k });
        }
    }
    // Sizes are checked arithmetically, before anything is built: the
    // engine packs host, link and flow indices into 30-bit event fields,
    // and the fabric's set-up state grows with the square of a radix.
    let size = topology_size(cfg.topology);
    if size.hosts.max(size.links) >= MAX_FLOWS || size.setup_bytes > MAX_SETUP_BYTES {
        return Err(ScenarioError::TopologyTooLarge {
            hosts: size.hosts,
            links: size.links,
            setup_bytes: size.setup_bytes,
        });
    }
    let hosts = cfg.topology.hosts();
    if hosts < 2 {
        return Err(ScenarioError::TooFewHosts { hosts });
    }
    if cfg.mtu == 0 {
        return Err(ScenarioError::ZeroMtu);
    }
    if cfg.buffer_bytes == 0 {
        return Err(ScenarioError::ZeroBuffer);
    }
    let frame = cfg.max_frame_bytes();
    if cfg.buffer_bytes < frame {
        return Err(ScenarioError::BufferBelowFrame {
            buffer_bytes: cfg.buffer_bytes,
            frame,
        });
    }
    let rtos = [
        ("rto_high_ns", cfg.rto_high),
        ("rto_low_ns", Some(cfg.rto_low)),
    ];
    for (field, rto) in rtos {
        if rto == Some(Duration::ZERO) {
            return Err(ScenarioError::ZeroRto { field });
        }
    }
    let stated = [
        ("prop_delay_ns", cfg.prop_delay),
        ("rto_high_ns", cfg.rto_high.unwrap_or(Duration::ZERO)),
        ("rto_low_ns", cfg.rto_low),
        ("retx_fetch_delay_ns", cfg.retx_fetch_delay),
    ];
    for (field, d) in stated {
        let ns = d.as_nanos();
        if ns > HORIZON_NS {
            return Err(ScenarioError::BeyondHorizon { field, ns });
        }
    }
    // The fabric provisions every port with this rule; the delay is
    // within the horizon here, so the product cannot overflow.
    let headroom = PfcConfig::headroom(cfg.bandwidth, cfg.prop_delay, frame);
    if cfg.pfc && cfg.buffer_bytes <= headroom {
        return Err(ScenarioError::BufferBelowPfcHeadroom {
            buffer_bytes: cfg.buffer_bytes,
            headroom,
        });
    }
    if !(cfg.loss_injection >= 0.0 && cfg.loss_injection < 1.0) {
        return Err(ScenarioError::LossOutOfRange {
            loss: cfg.loss_injection,
        });
    }
    if cfg.max_events == 0 {
        return Err(ScenarioError::ZeroMaxEvents);
    }
    if cfg.nack_threshold == 0 {
        return Err(ScenarioError::ZeroNackThreshold);
    }
    cfg.traffic.validate_in(&TrafficCtx {
        hosts,
        line_rate_bps: cfg.bandwidth.as_bps_f64(),
        seed: cfg.seed,
    })?;
    Ok(())
}

/// The most set-up state a topology may need, in bytes (1 GiB): a
/// `single_switch` of 11 585 hosts or a k=68 fat-tree fits. VOQs grow
/// as a radix squared and routing candidates as k⁵ on a fat-tree, so a
/// hostile file would otherwise exhaust memory before its run began.
pub const MAX_SETUP_BYTES: u128 = 1 << 30;

/// What a topology describes, computed without building it (every
/// product saturates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TopologySize {
    hosts: u128,
    links: u128,
    /// The tables the fabric allocates at set-up that grow faster than
    /// its link count: the routing offsets (one per switch and
    /// attachment switch, plus one), their candidate ports, the
    /// attachment × attachment distance matrix, and a VOQ per (input,
    /// output) port pair of every switch.
    setup_bytes: u128,
}

fn topology_size(topology: TopologySpec) -> TopologySize {
    let m = u128::saturating_mul;
    // Hosts, cables, switches, switches with hosts (attachments),
    // routing candidate ports, Σ radix².
    let (hosts, cables, switches, attachments, candidates, voqs) = match topology {
        // k³/4 host cables, then as many edge–aggregation and as many
        // aggregation–core ones; 5k²/4 switches of radix k, of which the
        // E = k²/2 edge switches have hosts. Toward an attachment, an
        // edge switch has k/2 candidates (the pod's aggregations), an
        // aggregation 1 inside its pod and k/2 (its cores) outside it,
        // and a core 1.
        TopologySpec::FatTree(k) => {
            let k = k as u128;
            let (half, hosts) = (k / 2, k.saturating_pow(3) / 4);
            let edges = m(k, half);
            let from_edges = m(m(edges, edges.saturating_sub(1)), half);
            let from_aggs = m(edges, half.saturating_add(m(edges - half, half)));
            let from_cores = m(m(half, half), edges);
            let candidates = from_edges
                .saturating_add(from_aggs)
                .saturating_add(from_cores);
            let switches = m(k, k).saturating_mul(5) / 4;
            let voqs = m(switches, m(k, k));
            (hosts, m(hosts, 3), switches, edges, candidates, voqs)
        }
        // The one switch is every host's attachment: no candidates.
        TopologySpec::SingleSwitch(hosts) => {
            let hosts = hosts as u128;
            (hosts, hosts, 1, (hosts > 0) as u128, 0, m(hosts, hosts))
        }
        // Toward each attachment, the other switch has one candidate.
        TopologySpec::Dumbbell(left, right) => {
            let (left, right) = (left as u128, right as u128);
            let voqs = m(left + 1, left + 1).saturating_add(m(right + 1, right + 1));
            let attachments = (left > 0) as u128 + (right > 0) as u128;
            let hosts = left + right;
            (hosts, hosts + 1, 2, attachments, attachments, voqs)
        }
    };
    let bytes = |count: u128, each: usize| m(count, each as u128);
    let setup_bytes = [
        bytes(
            m(switches, attachments).saturating_add(1),
            std::mem::size_of::<u32>(),
        ),
        bytes(candidates, std::mem::size_of::<u16>()),
        bytes(m(attachments, attachments), std::mem::size_of::<u16>()),
        bytes(voqs, std::mem::size_of::<irn_net::PktQueue>()),
    ]
    .into_iter()
    .fold(0, u128::saturating_add);
    TopologySize {
        hosts,
        links: m(cables, 2),
        setup_bytes,
    }
}

fn slugify(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut dash = false;
    for c in name.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
            out.push(c);
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    let out = out.trim_matches('-').to_string();
    if out.is_empty() {
        "scenario".to_string()
    } else {
        out
    }
}

// ---------------------------------------------------------------------
// The scenario-v1 codec: one table per object, one writer, one strict
// reader
// ---------------------------------------------------------------------

type Res<T> = Result<T, ScenarioError>;

/// A Rust type with exactly one scenario-v1 JSON form. A table row takes
/// its conversion from its field's type: `Duration`/`Time` are the
/// `*_ns` integers, `Bandwidth` is `bandwidth_mbps`, and a type with a
/// table walks it.
trait Json: Sized {
    fn write(&self) -> Value;
    /// `path` is the dotted path of `v` from the document root.
    fn read(v: &Value, path: &str) -> Res<Self>;
}

/// One row of a table: the JSON key, spelled once, next to accessors
/// for the Rust field it maps to.
struct Field<T> {
    key: &'static str,
    /// A required key must be present; an optional one keeps the value
    /// its table's blank starts with, which is its documented default.
    required: bool,
    get: fn(&T) -> Value,
    set: fn(&mut T, &Value, &str) -> Res<()>,
}

const REQ: bool = true;
const OPT: bool = false;

/// How a table's value is spelled.
#[derive(Clone, Copy)]
enum Shape {
    /// The bare tag: `"heavy_tailed"`.
    Name,
    /// `{tag: value}`, the value being the single row's.
    Value,
    /// The rows as an object, under `{tag: …}` inside a union.
    Fields,
}

/// The table of one object or of one variant of a union.
struct Table<T: 'static> {
    /// The variant's spelling in its union; empty for a plain object.
    tag: &'static str,
    shape: Shape,
    is: fn(&T) -> bool,
    /// What a read starts from: the optional rows' defaults, and
    /// placeholders the required rows overwrite.
    blank: fn() -> T,
    fields: &'static [Field<T>],
}

/// An externally tagged choice between tables; a name table when every
/// variant is a [`Shape::Name`].
struct Union<T: 'static> {
    variants: &'static [Table<T>],
    /// The accepted spellings, as `UnknownName` lists them.
    expected: &'static [&'static str],
}

/// A table from the Rust constructor of its value. A row reads `"key":
/// REQ field` or `"key": OPT field = default`; a placeholder is the
/// field type's `Default` unless one is given the same way.
macro_rules! table {
    (fields $tag:literal, $($ctor:ident)::+ {
        $($key:literal: $required:ident $var:ident $(= $blank:expr)?),* $(,)?
    }) => {
        table!(@build $tag Fields, $($ctor)::+ { $($var),* },
            $($ctor)::+ { $($var: table!(@blank $($blank)?)),* }, [] $($key: $required $var),*)
    };
    (fields $tag:literal, $($ctor:ident)::+ [
        $($key:literal: $required:ident $var:ident $(= $blank:expr)?),* $(,)?
    ]) => {
        table!(@build $tag Fields, $($ctor)::+($($var),*),
            $($ctor)::+($(table!(@blank $($blank)?)),*), [] $($key: $required $var),*)
    };
    (value $tag:literal, $($ctor:ident)::+ [$var:ident] $($hint:literal)?) => {
        table!(@build $tag Value, $($ctor)::+($var),
            $($ctor)::+(Default::default()), [] $tag: REQ $var)
    };
    (name $tag:literal, $($unit:ident)::+) => {
        table!(@build $tag Name, $($unit)::+, $($unit)::+, [])
    };
    (@blank) => {
        Default::default()
    };
    (@blank $blank:expr) => {
        $blank
    };
    (@build $tag:literal $shape:ident, $pat:pat, $blank:expr, [$($row:expr),*]
        $($key:literal: $required:ident $var:ident),* $(,)?
    ) => {
        Table {
            tag: $tag,
            shape: Shape::$shape,
            is: |t| matches!(t, $pat),
            blank: || $blank,
            fields: &[
                $($row,)*
                $(Field {
                    key: $key,
                    required: $required,
                    get: |t| match t {
                        $pat => Json::write($var),
                        _ => unreachable!("row of another variant"),
                    },
                    set: |t, v, at| match t {
                        $pat => {
                            *$var = Json::read(v, at)?;
                            Ok(())
                        }
                        _ => unreachable!("row of another variant"),
                    },
                }),*
            ],
        }
    };
}

/// A union from its variants, each `"tag" => kind(…)` with `kind` one of
/// `table!`'s. The `"hint"` after a `value` variant is how `UnknownName`
/// spells its payload.
macro_rules! union {
    ($($tag:literal => $kind:ident($($body:tt)*)),+ $(,)?) => {
        Union {
            variants: &[$(table!($kind $tag, $($body)*)),+],
            expected: &[$(union!(@expected $tag $($body)*)),+],
        }
    };
    (@expected $tag:literal $($ctor:ident)::+ [$var:ident] $hint:literal) => {
        concat!("{\"", $tag, "\": ", $hint, "}")
    };
    (@expected $tag:literal $($body:tt)*) => {
        $tag
    };
}

/// `path.key`, or `key` alone at the document root.
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

impl<T> Table<T> {
    /// The one writer: rows in table order.
    fn write(&self, t: &T) -> Value {
        match self.shape {
            Shape::Name => self.tag.to_json(),
            Shape::Value => (self.fields[0].get)(t),
            Shape::Fields => {
                let pair = |row: &Field<T>| (row.key.to_string(), (row.get)(t));
                Value::Object(self.fields.iter().map(pair).collect())
            }
        }
    }

    /// The one strict reader: every key of an object must be a row and
    /// appear once, and every required row must be present.
    fn read(&self, v: &Value, path: &str) -> Res<T> {
        let mut out = (self.blank)();
        match (self.shape, v) {
            (Shape::Name, _) => {}
            (Shape::Value, v) => (self.fields[0].set)(&mut out, v, path)?,
            (Shape::Fields, Value::Object(pairs)) => {
                for (i, (key, _)) in pairs.iter().enumerate() {
                    let field = join(path, key);
                    if !self.fields.iter().any(|row| row.key == key) {
                        return Err(ScenarioError::UnknownField { field });
                    }
                    if pairs[..i].iter().any(|(earlier, _)| earlier == key) {
                        return Err(ScenarioError::DuplicateField { field });
                    }
                }
                for row in self.fields {
                    let at = join(path, row.key);
                    match v.get(row.key) {
                        Some(value) => (row.set)(&mut out, value, &at)?,
                        None if row.required => {
                            let msg = format!("missing required field '{at}'");
                            return Err(DeError::new(msg).into());
                        }
                        None => {}
                    }
                }
            }
            (Shape::Fields, other) => {
                return Err(DeError::expected("an object", other).in_field(path).into());
            }
        }
        Ok(out)
    }
}

impl<T> Union<T> {
    fn variant_of(&self, t: &T) -> &Table<T> {
        let var = self.variants.iter().find(|var| (var.is)(t));
        var.expect("every value has a variant table")
    }

    fn write(&self, t: &T) -> Value {
        let var = self.variant_of(t);
        match var.shape {
            Shape::Name => var.write(t),
            _ => Value::Object(vec![(var.tag.to_string(), var.write(t))]),
        }
    }

    fn read(&self, v: &Value, path: &str) -> Res<T> {
        let is_name = |var: &Table<T>| matches!(var.shape, Shape::Name);
        let names = self.variants.iter().filter(|var| is_name(var)).count();
        let tagged = names < self.variants.len();
        let (tag, payload) = match v {
            Value::String(s) if names > 0 => (s.as_str(), None),
            Value::Object(pairs) if tagged && pairs.len() == 1 => {
                (pairs[0].0.as_str(), Some(&pairs[0].1))
            }
            other => {
                let what = if tagged {
                    "an object with exactly one key"
                } else {
                    "a string"
                };
                return Err(DeError::expected(what, other).in_field(path).into());
            }
        };
        let var = self
            .variants
            .iter()
            .find(|var| var.tag == tag && is_name(var) == payload.is_none())
            .ok_or_else(|| ScenarioError::UnknownName {
                field: path.to_string(),
                found: tag.to_string(),
                expected: self.expected,
            })?;
        var.read(payload.unwrap_or(v), &join(path, tag))
    }
}

// ---------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------

/// Types `serde` already spells the scenario-v1 way: the primitives,
/// and `Duration`/`Time` as whole nanoseconds (the `*_ns` keys, with
/// `null` for an absent `rto_high_ns`).
macro_rules! json_by_serde {
    ($($ty:ty),+) => {$(
        impl Json for $ty {
            fn write(&self) -> Value {
                self.to_json()
            }

            fn read(v: &Value, path: &str) -> Res<$ty> {
                <$ty>::from_json(v).map_err(|e| e.in_field(path).into())
            }
        }
    )+};
}

json_by_serde!(
    bool,
    u32,
    u64,
    usize,
    f64,
    String,
    Duration,
    Time,
    Option<Duration>
);

/// `bandwidth_mbps`; zero never reaches the panicking constructor.
impl Json for Bandwidth {
    fn write(&self) -> Value {
        self.as_mbps().to_json()
    }

    fn read(v: &Value, path: &str) -> Res<Bandwidth> {
        match u64::read(v, path)? {
            0 => Err(ScenarioError::ZeroBandwidth),
            mbps => Ok(Bandwidth::from_mbps(mbps)),
        }
    }
}

/// The items of the `explicit` and `compose` arrays; `PLURAL` completes
/// "expected an array of …".
trait Item: Json {
    const PLURAL: &'static str;
}

impl Item for FlowSpec {
    const PLURAL: &'static str = "flows";
}

impl Item for Component {
    const PLURAL: &'static str = "parts";
}

impl<T: Item> Json for Vec<T> {
    fn write(&self) -> Value {
        Value::Array(self.iter().map(Json::write).collect())
    }

    fn read(v: &Value, path: &str) -> Res<Vec<T>> {
        let what = format!("an array of {}", T::PLURAL);
        let items = v
            .as_array()
            .ok_or_else(|| DeError::expected(&what, v).in_field(path))?;
        let item = |(i, item)| T::read(item, &join(path, &format!("[{i}]")));
        items.iter().enumerate().map(item).collect()
    }
}

// ---------------------------------------------------------------------
// The tables
// ---------------------------------------------------------------------

/// Define each table and spell its type by walking it.
macro_rules! tables {
    ($($(#[$attr:meta])* $name:ident: $kind:ident<$ty:ty> = $table:expr;)+) => {$(
        $(#[$attr])*
        #[allow(unused_variables, unreachable_patterns)]
        static $name: $kind<$ty> = $table;

        impl Json for $ty {
            fn write(&self) -> Value {
                $name.write(self)
            }

            fn read(v: &Value, path: &str) -> Res<$ty> {
                $name.read(v, path)
            }
        }
    )+};
}

/// The scenario-v1 spelling of a transport kind (also the `kind` label
/// of the telemetry block's per-transport rows).
pub fn transport_name(kind: TransportKind) -> &'static str {
    TRANSPORT.variant_of(&kind).tag
}

tables! {
    SCENARIO: Table<Scenario> = table!(@build "" Fields,
        Scenario {
            name,
            cfg: ExperimentConfig {
                topology, bandwidth, prop_delay, buffer_bytes, pfc, transport, cc, traffic, seed,
                mtu, rto_high, rto_low, rto_low_n, extra_header, retx_fetch_delay, loss_injection,
                load_balancing, nack_threshold, max_events,
            },
        },
        // Every optional key defaults to the paper's §4.1 value.
        Scenario { name: String::new(), cfg: ExperimentConfig::paper_default(1000) },
        [Field {
            key: "schema",
            required: REQ,
            get: |_| SCENARIO_SCHEMA.to_json(),
            set: |_, v, at| match String::read(v, at)? {
                found if found != SCENARIO_SCHEMA => Err(ScenarioError::UnknownSchema { found }),
                _ => Ok(()),
            },
        }]
        "name": REQ name,
        "topology": REQ topology,
        "bandwidth_mbps": OPT bandwidth,
        "prop_delay_ns": OPT prop_delay,
        "buffer_bytes": OPT buffer_bytes,
        "pfc": OPT pfc,
        "transport": OPT transport,
        "cc": OPT cc,
        "traffic": REQ traffic,
        "seed": OPT seed,
        "mtu": OPT mtu,
        "rto_high_ns": OPT rto_high,
        "rto_low_ns": OPT rto_low,
        "rto_low_n": OPT rto_low_n,
        "extra_header": OPT extra_header,
        "retx_fetch_delay_ns": OPT retx_fetch_delay,
        "loss_injection": OPT loss_injection,
        "load_balancing": OPT load_balancing,
        "nack_threshold": OPT nack_threshold,
        "max_events": OPT max_events,
    );
    TOPOLOGY: Union<TopologySpec> = union![
        "fat_tree" => fields(TopologySpec::FatTree["k": REQ k]),
        "single_switch" => fields(TopologySpec::SingleSwitch["hosts": REQ hosts]),
        "dumbbell" => fields(TopologySpec::Dumbbell["left": REQ left, "right": REQ right]),
    ];
    TRANSPORT: Union<TransportKind> = union![
        "irn" => name(TransportKind::Irn),
        "roce" => name(TransportKind::Roce),
        "irn_go_back_n" => name(TransportKind::IrnGoBackN),
        "irn_no_bdp_fc" => name(TransportKind::IrnNoBdpFc),
        "iwarp_tcp" => name(TransportKind::IwarpTcp),
    ];
    CC: Union<CcKind> = union![
        "none" => name(CcKind::None),
        "timely" => name(CcKind::Timely),
        "dcqcn" => name(CcKind::Dcqcn),
        "aimd" => name(CcKind::Aimd),
        "dctcp" => name(CcKind::Dctcp),
    ];
    LOAD_BALANCING: Union<LoadBalancing> = union![
        "ecmp_per_flow" => name(LoadBalancing::EcmpPerFlow),
        "packet_spray" => name(LoadBalancing::PacketSpray),
    ];
    SIZES: Union<SizeDistribution> = union![
        "heavy_tailed" => name(SizeDistribution::HeavyTailed),
        "uniform_500kb_to_5mb" => name(SizeDistribution::Uniform500KbTo5Mb),
        "fixed" => value(SizeDistribution::Fixed[bytes] "bytes"),
    ];
    TRAFFIC: Union<TrafficModel> = union![
        "poisson" => fields(TrafficModel::Poisson {
            "load": REQ load,
            "sizes": REQ sizes = SizeDistribution::HeavyTailed,
            "flows": REQ flow_count,
        }),
        "bursty_poisson" => fields(TrafficModel::BurstyPoisson {
            "load": REQ load,
            "sizes": REQ sizes = SizeDistribution::HeavyTailed,
            "flows": REQ flow_count,
            "duty_cycle": REQ duty_cycle,
            "burst_flows": REQ burst_flows,
        }),
        "incast" => fields(TrafficModel::Incast {
            "m": REQ m,
            "total_bytes": REQ total_bytes,
        }),
        "shuffle" => fields(TrafficModel::Shuffle {
            "flow_bytes": REQ flow_bytes,
            "rounds": REQ rounds,
            "round_gap_ns": OPT round_gap = Duration::ZERO,
        }),
        "explicit" => value(TrafficModel::Explicit[flows]),
        "rpc_closed_loop" => fields(TrafficModel::RpcClosedLoop {
            "clients": REQ clients,
            "ops_per_client": REQ ops_per_client,
            "window": OPT window = 1,
            "request_bytes": REQ request_bytes,
            "response_bytes": REQ response_bytes,
            "think_ns": OPT think = Duration::ZERO,
            "fanout": OPT fanout = 1,
        }),
        "allreduce" => fields(TrafficModel::Allreduce {
            "algorithm": OPT algorithm = AllreduceAlgo::Ring,
            "participants": REQ participants,
            "bytes": REQ bytes,
            "iterations": OPT iterations = 1,
        }),
        "leader_replicate" => fields(TrafficModel::LeaderReplicate {
            "clients": REQ clients,
            "followers": REQ followers,
            "quorum": REQ quorum,
            "ops_per_client": REQ ops_per_client,
            "request_bytes": REQ request_bytes,
            "ack_bytes": REQ ack_bytes,
            "think_ns": OPT think = Duration::ZERO,
        }),
        "compose" => value(TrafficModel::Compose[parts]),
    ];
    ALGORITHM: Union<AllreduceAlgo> = union![
        "ring" => name(AllreduceAlgo::Ring),
        "tree" => name(AllreduceAlgo::Tree),
    ];
    FLOW: Table<FlowSpec> = table!(fields "", FlowSpec {
        "src": REQ src,
        "dst": REQ dst,
        "bytes": REQ bytes,
        "at_ns": OPT at = Time::ZERO,
    });
    PART: Table<Component> = table!(fields "", Component {
        "traffic": REQ model = TrafficModel::Compose(Vec::new()),
        "population": OPT population = Population::Primary,
        "seed_salt": OPT seed_salt = 0,
        "start": OPT start = Start::Zero,
    });
    POPULATION: Union<Population> = union![
        "primary" => name(Population::Primary),
        "incast" => name(Population::Incast),
    ];
    START: Union<Start> = union![
        "zero" => name(Start::Zero),
        "prior_median" => name(Start::PriorMedian),
        "at_ns" => value(Start::At[offset] "nanoseconds"),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_scenario() -> Scenario {
        Scenario::from_config("paper default", ExperimentConfig::paper_default(400)).unwrap()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let s = paper_scenario();
        let text = s.to_json_string();
        let parsed = Scenario::from_json_str(&text).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn minimal_document_fills_paper_defaults() {
        let text = r#"{
            "schema": "scenario-v1",
            "name": "tiny",
            "topology": {"single_switch": {"hosts": 4}},
            "traffic": {"poisson": {"load": 0.5, "sizes": "heavy_tailed", "flows": 50}}
        }"#;
        let s = Scenario::from_json_str(text).unwrap();
        let d = ExperimentConfig::paper_default(1);
        assert_eq!(s.config().bandwidth, d.bandwidth);
        assert_eq!(s.config().mtu, d.mtu);
        assert_eq!(s.config().rto_low, d.rto_low);
        assert_eq!(s.config().seed, d.seed);
        assert_eq!(s.config().topology, TopologySpec::SingleSwitch(4));
    }

    #[test]
    fn unknown_and_missing_fields_are_typed_errors() {
        let unknown = r#"{
            "schema": "scenario-v1",
            "name": "x",
            "topology": {"single_switch": {"hosts": 4}},
            "traffic": {"poisson": {"laod": 0.5, "sizes": "heavy_tailed", "flows": 50}}
        }"#;
        match Scenario::from_json_str(unknown).unwrap_err() {
            ScenarioError::UnknownField { field } => {
                assert_eq!(field, "traffic.poisson.laod");
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
        let missing = r#"{
            "schema": "scenario-v1",
            "name": "x",
            "topology": {"single_switch": {"hosts": 4}},
            "traffic": {"poisson": {"load": 0.5, "sizes": "heavy_tailed"}}
        }"#;
        let err = Scenario::from_json_str(missing).unwrap_err();
        assert!(
            err.to_string().contains("traffic.poisson.flows"),
            "error must name the missing field: {err}"
        );
        let bad_schema = r#"{"schema": "scenario-v2", "name": "x",
            "topology": {"single_switch": {"hosts": 4}},
            "traffic": {"poisson": {"load": 0.5, "sizes": "heavy_tailed", "flows": 5}}}"#;
        assert!(matches!(
            Scenario::from_json_str(bad_schema).unwrap_err(),
            ScenarioError::UnknownSchema { .. }
        ));
    }

    #[test]
    fn validation_rejects_the_issue_list() {
        // load ∉ (0, 1]
        let err = Scenario::builder("x")
            .traffic(TrafficModel::Poisson {
                load: 1.5,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: 10,
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Traffic(TrafficError::LoadOutOfRange { .. })
        ));
        // M ≥ hosts
        let err = Scenario::builder("x")
            .topology(TopologySpec::SingleSwitch(8))
            .traffic(TrafficModel::Incast {
                m: 8,
                total_bytes: 1000,
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Traffic(TrafficError::IncastFanIn { m: 8, hosts: 8 })
        ));
        // odd fat-tree k
        let err = Scenario::builder("x")
            .topology(TopologySpec::FatTree(5))
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::OddFatTree { k: 5 });
        // mtu = 0
        let err = Scenario::builder("x")
            .configure(|c| c.mtu = 0)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::ZeroMtu);
        // PFC headroom (§4.1): 40 Gbps × 2 × 50 µs + 2 × 1048 B frames,
        // which the buffer must exceed; without PFC the rule is moot.
        let pfc = |pfc: bool, buffer_bytes: u64| {
            Scenario::builder("x")
                .pfc(pfc)
                .configure(|c| c.prop_delay = Duration::micros(50))
                .configure(|c| c.buffer_bytes = buffer_bytes)
                .build()
        };
        assert_eq!(
            pfc(true, 502_096).unwrap_err(),
            ScenarioError::BufferBelowPfcHeadroom {
                buffer_bytes: 502_096,
                headroom: 502_096
            }
        );
        assert!(pfc(true, 502_097).is_ok() && pfc(false, 240_000).is_ok());
        // empty name
        assert_eq!(
            Scenario::builder("").build().unwrap_err(),
            ScenarioError::EmptyName
        );
        // zero bandwidth never reaches the panicking constructor
        let err = Scenario::from_json_str(
            r#"{"schema": "scenario-v1", "name": "x", "bandwidth_mbps": 0,
                "topology": {"single_switch": {"hosts": 4}},
                "traffic": {"poisson": {"load": 0.5, "sizes": "heavy_tailed", "flows": 5}}}"#,
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::ZeroBandwidth);
    }

    #[test]
    fn closed_loop_config_mistakes_surface_as_typed_errors() {
        // Degenerate closed-loop parameters reachable from a scenario
        // document must come back as typed errors, never a panic.
        let parse = |traffic: &str| {
            Scenario::from_json_str(&format!(
                r#"{{"schema": "scenario-v1", "name": "x",
                    "topology": {{"single_switch": {{"hosts": 8}}}},
                    "traffic": {traffic}}}"#,
            ))
            .unwrap_err()
        };
        // Think times a client could sum past the virtual-time horizon.
        let err = parse(&format!(
            r#"{{"rpc_closed_loop": {{"clients": 2, "ops_per_client": 100,
                "request_bytes": 1000, "response_bytes": 100,
                "think_ns": {}}}}}"#,
            u64::MAX / 4
        ));
        assert!(matches!(
            err,
            ScenarioError::Traffic(TrafficError::BeyondHorizon {
                field: "think_ns × ops_per_client",
                ..
            })
        ));
        // Quorum larger than the follower set.
        let err = parse(
            r#"{"leader_replicate": {"clients": 2, "followers": 3, "quorum": 5,
                "ops_per_client": 4, "request_bytes": 1000, "ack_bytes": 64}}"#,
        );
        assert!(matches!(
            err,
            ScenarioError::Traffic(TrafficError::QuorumOutOfRange {
                quorum: 5,
                followers: 3
            })
        ));
        // More participants than hosts.
        let err = parse(r#"{"allreduce": {"participants": 9, "bytes": 1000}}"#);
        assert!(matches!(
            err,
            ScenarioError::Traffic(TrafficError::ParticipantsOutOfRange {
                participants: 9,
                hosts: 8
            })
        ));
        // A closed-loop model inside a compose.
        let err = parse(
            r#"{"compose": [{"traffic": {"rpc_closed_loop": {"clients": 1,
                "ops_per_client": 1, "request_bytes": 1, "response_bytes": 1}}}]}"#,
        );
        assert!(matches!(
            err,
            ScenarioError::Traffic(TrafficError::ClosedLoopInCompose)
        ));
        // Unknown fields inside a closed-loop payload are typos.
        let err = parse(
            r#"{"rpc_closed_loop": {"clients": 1, "ops_per_client": 1,
                "request_bytes": 1, "response_bytes": 1, "fanuot": 2}}"#,
        );
        assert_eq!(
            err,
            ScenarioError::UnknownField {
                field: "traffic.rpc_closed_loop.fanuot".to_string()
            }
        );
        // Unknown allreduce algorithm names list the options.
        let err = parse(
            r#"{"allreduce": {"algorithm": "butterfly", "participants": 4,
                "bytes": 1000}}"#,
        );
        assert!(matches!(
            err,
            ScenarioError::UnknownName { found, .. } if found == "butterfly"
        ));
    }

    #[test]
    fn every_traffic_model_round_trips() {
        let models = [
            TrafficModel::Poisson {
                load: 0.7,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: 100,
            },
            TrafficModel::BurstyPoisson {
                load: 0.6,
                sizes: SizeDistribution::Uniform500KbTo5Mb,
                flow_count: 40,
                duty_cycle: 0.25,
                burst_flows: 8,
            },
            TrafficModel::Incast {
                m: 3,
                total_bytes: 1_000_000,
            },
            TrafficModel::Shuffle {
                flow_bytes: 50_000,
                rounds: 3,
                round_gap: Duration::micros(10),
            },
            TrafficModel::Explicit(vec![FlowSpec {
                src: 0,
                dst: 1,
                bytes: 777,
                at: Time::from_nanos(42),
            }]),
            TrafficModel::incast_with_cross(3, 500_000, 0.5, SizeDistribution::Fixed(2000), 30),
            TrafficModel::RpcClosedLoop {
                clients: 2,
                ops_per_client: 10,
                window: 2,
                request_bytes: 4096,
                response_bytes: 256,
                think: Duration::micros(50),
                fanout: 2,
            },
            TrafficModel::Allreduce {
                algorithm: AllreduceAlgo::Tree,
                participants: 5,
                bytes: 1 << 20,
                iterations: 3,
            },
            TrafficModel::LeaderReplicate {
                clients: 2,
                followers: 3,
                quorum: 2,
                ops_per_client: 8,
                request_bytes: 2048,
                ack_bytes: 64,
                think: Duration::micros(20),
            },
        ];
        for model in models {
            let s = Scenario::builder("model under test")
                .topology(TopologySpec::SingleSwitch(6))
                .traffic(model.clone())
                .build()
                .unwrap();
            let text = s.to_json_string();
            let parsed = Scenario::from_json_str(&text).unwrap();
            assert_eq!(parsed.config().traffic, model, "{text}");
            assert_eq!(parsed.to_json_string(), text);
        }
    }

    /// One valid scenario per traffic model, each with the compact form
    /// of its `topology` and `traffic` values as serialized at the
    /// commit before the codec became table-driven.
    fn golden_models() -> Vec<(TopologySpec, TrafficModel, &'static str, &'static str)> {
        let single = (
            TopologySpec::SingleSwitch(6),
            r#"{"single_switch":{"hosts":6}}"#,
        );
        let dumbbell = (
            TopologySpec::Dumbbell(2, 4),
            r#"{"dumbbell":{"left":2,"right":4}}"#,
        );
        vec![
            (
                single,
                TrafficModel::Poisson {
                    load: 0.7,
                    sizes: SizeDistribution::HeavyTailed,
                    flow_count: 100,
                },
                r#"{"poisson":{"load":0.7,"sizes":"heavy_tailed","flows":100}}"#,
            ),
            (
                single,
                TrafficModel::BurstyPoisson {
                    load: 0.6,
                    sizes: SizeDistribution::Uniform500KbTo5Mb,
                    flow_count: 40,
                    duty_cycle: 0.25,
                    burst_flows: 8,
                },
                r#"{"bursty_poisson":{"load":0.6,"sizes":"uniform_500kb_to_5mb","flows":40,"duty_cycle":0.25,"burst_flows":8}}"#,
            ),
            (
                single,
                TrafficModel::Incast {
                    m: 3,
                    total_bytes: 1_000_000,
                },
                r#"{"incast":{"m":3,"total_bytes":1000000}}"#,
            ),
            (
                single,
                TrafficModel::Shuffle {
                    flow_bytes: 50_000,
                    rounds: 3,
                    round_gap: Duration::micros(10),
                },
                r#"{"shuffle":{"flow_bytes":50000,"rounds":3,"round_gap_ns":10000}}"#,
            ),
            (
                single,
                TrafficModel::Explicit(vec![FlowSpec {
                    src: 0,
                    dst: 1,
                    bytes: 777,
                    at: Time::from_nanos(42),
                }]),
                r#"{"explicit":[{"src":0,"dst":1,"bytes":777,"at_ns":42}]}"#,
            ),
            (
                dumbbell,
                TrafficModel::incast_with_cross(3, 500_000, 0.5, SizeDistribution::Fixed(2000), 30),
                concat!(
                    r#"{"compose":[{"traffic":{"poisson":{"load":0.5,"sizes":{"fixed":2000},"flows":30}},"#,
                    r#""population":"primary","seed_salt":0,"start":"zero"},"#,
                    r#"{"traffic":{"incast":{"m":3,"total_bytes":500000}},"#,
                    r#""population":"incast","seed_salt":117335,"start":"prior_median"}]}"#,
                ),
            ),
            (
                single,
                TrafficModel::RpcClosedLoop {
                    clients: 2,
                    ops_per_client: 10,
                    window: 2,
                    request_bytes: 4096,
                    response_bytes: 256,
                    think: Duration::micros(50),
                    fanout: 2,
                },
                r#"{"rpc_closed_loop":{"clients":2,"ops_per_client":10,"window":2,"request_bytes":4096,"response_bytes":256,"think_ns":50000,"fanout":2}}"#,
            ),
            (
                single,
                TrafficModel::Allreduce {
                    algorithm: AllreduceAlgo::Tree,
                    participants: 5,
                    bytes: 1 << 20,
                    iterations: 3,
                },
                r#"{"allreduce":{"algorithm":"tree","participants":5,"bytes":1048576,"iterations":3}}"#,
            ),
            (
                single,
                TrafficModel::LeaderReplicate {
                    clients: 2,
                    followers: 3,
                    quorum: 2,
                    ops_per_client: 8,
                    request_bytes: 2048,
                    ack_bytes: 64,
                    think: Duration::micros(20),
                },
                r#"{"leader_replicate":{"clients":2,"followers":3,"quorum":2,"ops_per_client":8,"request_bytes":2048,"ack_bytes":64,"think_ns":20000}}"#,
            ),
        ]
        .into_iter()
        .map(|((topology, topology_json), model, traffic_json)| {
            (topology, model, topology_json, traffic_json)
        })
        .collect()
    }

    fn golden_scenario(topology: TopologySpec, model: &TrafficModel) -> Scenario {
        Scenario::builder("model under test")
            .topology(topology)
            .traffic(model.clone())
            .build()
            .unwrap()
    }

    /// The canonical bytes, pinned against literals captured at the
    /// commit before the codec became table-driven: a codec that
    /// reordered or renamed a field on both the write and the read side
    /// would pass every round-trip test and fail this one.
    #[test]
    fn golden_bytes_are_pinned() {
        let paper = concat!(
            "{\n  \"schema\": \"scenario-v1\",\n  \"name\": \"paper default\",\n",
            "  \"topology\": {\n    \"fat_tree\": {\n      \"k\": 6\n    }\n  },\n",
            "  \"bandwidth_mbps\": 40000,\n  \"prop_delay_ns\": 2000,\n",
            "  \"buffer_bytes\": 240000,\n  \"pfc\": false,\n  \"transport\": \"irn\",\n",
            "  \"cc\": \"none\",\n  \"traffic\": {\n    \"poisson\": {\n      \"load\": 0.7,\n",
            "      \"sizes\": \"heavy_tailed\",\n      \"flows\": 400\n    }\n  },\n",
            "  \"seed\": 1,\n  \"mtu\": 1000,\n  \"rto_high_ns\": null,\n",
            "  \"rto_low_ns\": 100000,\n  \"rto_low_n\": 3,\n  \"extra_header\": 0,\n",
            "  \"retx_fetch_delay_ns\": 0,\n  \"loss_injection\": 0.0,\n",
            "  \"load_balancing\": \"ecmp_per_flow\",\n  \"nack_threshold\": 1,\n",
            "  \"max_events\": 5000000000\n}\n",
        );
        assert_eq!(paper_scenario().to_json_string(), paper);
        for (topology, model, topology_json, traffic_json) in golden_models() {
            let s = golden_scenario(topology, &model);
            let compact = format!(
                concat!(
                    r#"{{"schema":"scenario-v1","name":"model under test","topology":{},"#,
                    r#""bandwidth_mbps":40000,"prop_delay_ns":2000,"buffer_bytes":240000,"#,
                    r#""pfc":false,"transport":"irn","cc":"none","traffic":{},"seed":1,"#,
                    r#""mtu":1000,"rto_high_ns":null,"rto_low_ns":100000,"rto_low_n":3,"#,
                    r#""extra_header":0,"retx_fetch_delay_ns":0,"loss_injection":0.0,"#,
                    r#""load_balancing":"ecmp_per_flow","nack_threshold":1,"#,
                    r#""max_events":5000000000}}"#,
                ),
                topology_json, traffic_json
            );
            assert_eq!(json::to_string(&s.to_json_value()), compact);
            // The on-disk form is the pretty writer over the same tree.
            let pretty = json::to_string_pretty(&json::from_str(&compact).unwrap()) + "\n";
            assert_eq!(s.to_json_string(), pretty);
        }
    }

    /// A row as the table-driven tests see it: key, required, and the
    /// default (the blank's value) rendered as JSON.
    type Row = (&'static str, bool, Value);

    fn rows_of<T>(table: &Table<T>) -> Vec<Row> {
        let blank = (table.blank)();
        let row = |row: &Field<T>| (row.key, row.required, (row.get)(&blank));
        table.fields.iter().map(row).collect()
    }

    /// Every keyed object of the schema, generated from the tables: a
    /// valid full-form document that contains it, its dotted path in
    /// that document, and its rows.
    fn keyed_objects() -> Vec<(Value, String, Vec<Row>)> {
        let models = golden_models();
        let doc = |topology, model: &TrafficModel| golden_scenario(topology, model).to_json_value();
        let mut out = vec![(
            doc(models[0].0, &models[0].1),
            String::new(),
            rows_of(&SCENARIO),
        )];
        for var in TOPOLOGY.variants {
            let specs = [
                TopologySpec::FatTree(4),
                TopologySpec::SingleSwitch(6),
                TopologySpec::Dumbbell(2, 4),
            ];
            let spec = specs.into_iter().find(|spec| (var.is)(spec));
            let spec = spec.unwrap_or_else(|| panic!("no sample topology for {}", var.tag));
            let path = format!("topology.{}", var.tag);
            out.push((doc(spec, &models[0].1), path, rows_of(var)));
        }
        for var in TRAFFIC.variants {
            let (topology, model, ..) = models
                .iter()
                .find(|(_, model, ..)| (var.is)(model))
                .unwrap_or_else(|| panic!("no golden model for {}", var.tag));
            let path = format!("traffic.{}", var.tag);
            let rows = match (var.shape, model) {
                (Shape::Fields, _) => rows_of(var),
                (_, TrafficModel::Explicit(_)) => rows_of(&FLOW),
                (_, TrafficModel::Compose(_)) => rows_of(&PART),
                _ => panic!("{} carries an item type the tests do not know", var.tag),
            };
            let path = match var.shape {
                Shape::Fields => path,
                _ => format!("{path}.[0]"),
            };
            out.push((doc(*topology, model), path, rows));
        }
        out
    }

    /// The pairs of the object at `path` (`a.b.[0].c`) inside `doc`.
    fn object_at<'a>(doc: &'a mut Value, path: &str) -> &'a mut Vec<(String, Value)> {
        let mut at = doc;
        for segment in path.split('.').filter(|s| !s.is_empty()) {
            at = match (at, segment.strip_prefix('[')) {
                (Value::Array(items), Some(index)) => {
                    &mut items[index.trim_end_matches(']').parse::<usize>().unwrap()]
                }
                (Value::Object(pairs), None) => {
                    &mut pairs.iter_mut().find(|(k, _)| k == segment).unwrap().1
                }
                (other, _) => panic!("{path}: no '{segment}' in {other:?}"),
            };
        }
        match at {
            Value::Object(pairs) => pairs,
            other => panic!("{path} is not an object: {other:?}"),
        }
    }

    /// For every row of every table: a required key cannot be dropped,
    /// an optional one falls back to the table's default, no key can be
    /// repeated, and no object accepts a key its table lacks.
    #[test]
    fn every_table_row_is_enforced_by_the_strict_reader() {
        for (doc, path, rows) in keyed_objects() {
            let parsed = Scenario::from_json_value(&doc).unwrap();
            assert_eq!(parsed.to_json_value(), doc, "samples are full-form");
            for (key, required, default) in &rows {
                let field = join(&path, key);
                let mut dropped = doc.clone();
                object_at(&mut dropped, &path).retain(|(k, _)| k != key);
                match (required, Scenario::from_json_value(&dropped)) {
                    (true, Err(e)) => {
                        assert_eq!(e.to_string(), format!("missing required field '{field}'"));
                    }
                    (false, Ok(scenario)) => {
                        let mut full = scenario.to_json_value();
                        let pairs = object_at(&mut full, &path);
                        let value = &pairs.iter().find(|(k, _)| k == key).unwrap().1;
                        assert_eq!(value, default, "default of {field}");
                    }
                    (_, outcome) => panic!("dropping {field}: {outcome:?}"),
                }
                let mut repeated = doc.clone();
                let pairs = object_at(&mut repeated, &path);
                let copy = pairs.iter().find(|(k, _)| k == key).unwrap().clone();
                pairs.push(copy);
                assert_eq!(
                    Scenario::from_json_value(&repeated).unwrap_err(),
                    ScenarioError::DuplicateField { field }
                );
            }
            let mut stray = doc.clone();
            object_at(&mut stray, &path).push(("zzz".to_string(), Value::Null));
            assert_eq!(
                Scenario::from_json_value(&stray).unwrap_err(),
                ScenarioError::UnknownField {
                    field: join(&path, "zzz")
                }
            );
        }
    }

    /// `docs/SCENARIOS.md` is checked against the tables: the field
    /// reference has a row per top-level key whose Default column is the
    /// table's default, every topology and traffic model has a section
    /// (opened by its bold tag) that back-ticks each of its keys, and
    /// every name of every name table is spelled somewhere.
    #[test]
    fn scenarios_md_documents_every_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCENARIOS.md");
        let docs = std::fs::read_to_string(path).unwrap();
        for (key, required, default) in rows_of(&SCENARIO) {
            let row = docs
                .lines()
                .find(|line| line.starts_with(&format!("| `{key}` |")))
                .unwrap_or_else(|| panic!("no field-reference row for `{key}`"));
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let expect = if required {
                "—".to_string()
            } else {
                format!("`{}`", json::to_string(&default))
            };
            assert_eq!(cells[3], expect, "Default column of `{key}`");
        }
        let section = |tag: &str| {
            let open = format!("**`{tag}`**");
            let start = docs
                .find(&open)
                .unwrap_or_else(|| panic!("no section opened by {open}"));
            let body = &docs[start + open.len()..];
            let end = ["\n**`", "\n#"]
                .iter()
                .filter_map(|stop| body.find(stop))
                .min();
            body[..end.unwrap_or(body.len())].to_string()
        };
        let documents = |tag: &str, rows: &[Row]| {
            let body = section(tag);
            for (key, ..) in rows {
                assert!(
                    body.contains(&format!("`{key}`")),
                    "`{tag}` section lacks `{key}`"
                );
            }
        };
        for var in TOPOLOGY.variants {
            documents(var.tag, &rows_of(var));
        }
        for var in TRAFFIC.variants {
            match (var.shape, var.tag) {
                (Shape::Fields, tag) => documents(tag, &rows_of(var)),
                (_, "explicit") => documents("explicit", &rows_of(&FLOW)),
                (_, "compose") => documents("compose", &rows_of(&PART)),
                (_, tag) => panic!("{tag} carries an item type the tests do not know"),
            }
        }
        fn tags<T>(union: &Union<T>) -> Vec<&'static str> {
            union.variants.iter().map(|var| var.tag).collect()
        }
        let names = [
            tags(&TRANSPORT),
            tags(&CC),
            tags(&LOAD_BALANCING),
            tags(&POPULATION),
            tags(&ALGORITHM),
            tags(&SIZES),
            tags(&START),
        ];
        for name in names.concat() {
            let spelled = [format!("`{name}`"), format!("\"{name}\"")];
            assert!(
                spelled.iter().any(|s| docs.contains(s)),
                "`{name}` is undocumented"
            );
        }
    }

    /// One hostile size per bound: each is rejected arithmetically, as
    /// a typed error, before anything is allocated or built. (`explicit`
    /// shares `poisson`'s flow-count check; a list long enough to trip it
    /// cannot be materialized here.)
    #[test]
    fn hostile_sizes_are_typed_errors() {
        let parse = |topology: &str, traffic: &str| {
            Scenario::from_json_str(&format!(
                r#"{{"schema": "scenario-v1", "name": "x", "topology": {topology},
                    "traffic": {traffic}}}"#,
            ))
            .unwrap_err()
        };
        let small = r#"{"single_switch": {"hosts": 8}}"#;
        let poisson = |flows: u64| {
            format!(r#"{{"poisson": {{"load": 0.5, "sizes": "heavy_tailed", "flows": {flows}}}}}"#)
        };
        let too_many = |flows| ScenarioError::Traffic(TrafficError::TooManyFlows { flows });
        // Hosts.
        assert_eq!(
            parse(r#"{"single_switch": {"hosts": 3000000000}}"#, &poisson(10)),
            ScenarioError::TopologyTooLarge {
                hosts: 3_000_000_000,
                links: 6_000_000_000,
                // Two offsets, one distance, nine quintillion VOQs.
                setup_bytes: 2 * 4 + 2 + 3_000_000_000u128.pow(2) * 8,
            }
        );
        // Directed links (the hosts alone would fit).
        assert_eq!(
            parse(r#"{"fat_tree": {"k": 1000}}"#, &poisson(10)),
            ScenarioError::TopologyTooLarge {
                hosts: 250_000_000,
                links: 1_500_000_000,
                // 1 250 000 switches of radix 1 000, 500 000 with hosts.
                setup_bytes: (1_250_000 * 500_000 + 1) * 4
                    + (500_000 * 499_999 * 500
                        + 500_000 * (500 + 499_500 * 500)
                        + 250_000 * 500_000)
                        * 2
                    + 500_000u128.pow(2) * 2
                    + 1_250_000 * 1_000u128.pow(2) * 8,
            }
        );
        assert_eq!(
            parse(
                r#"{"dumbbell": {"left": 600000000, "right": 600000000}}"#,
                &poisson(10)
            ),
            ScenarioError::TopologyTooLarge {
                hosts: 1_200_000_000,
                links: 2_400_000_002,
                setup_bytes: 5 * 4 + 2 * 2 + 4 * 2 + 2 * 600_000_001u128.pow(2) * 8,
            }
        );
        // An arity whose cube overflows every integer type saturates.
        assert!(matches!(
            parse(r#"{"fat_tree": {"k": 18446744073709551614}}"#, &poisson(10)),
            ScenarioError::TopologyTooLarge { .. }
        ));
        // Flows, per model.
        assert_eq!(
            parse(small, &poisson(4_000_000_000)),
            too_many(4_000_000_000)
        );
        assert_eq!(
            parse(
                small,
                r#"{"bursty_poisson": {"load": 0.5, "sizes": "heavy_tailed",
                    "flows": 1073741824, "duty_cycle": 0.5, "burst_flows": 4}}"#
            ),
            too_many(1 << 30)
        );
        assert_eq!(
            parse(
                small,
                r#"{"shuffle": {"flow_bytes": 1000, "rounds": 200000000}}"#
            ),
            too_many(1_600_000_000)
        );
        let part = format!(
            r#"{{"compose": [{{"traffic": {}}}]}}"#,
            poisson(4_000_000_000)
        );
        assert_eq!(parse(small, &part), too_many(4_000_000_000));
        // The arithmetic agrees with what the builders build.
        for spec in [
            TopologySpec::FatTree(2),
            TopologySpec::FatTree(4),
            TopologySpec::FatTree(8),
            TopologySpec::SingleSwitch(5),
            TopologySpec::Dumbbell(2, 6),
            TopologySpec::Dumbbell(0, 3),
        ] {
            let built = spec.build();
            let mut radix = vec![0u128; built.switches];
            let mut attachments = std::collections::BTreeSet::new();
            for c in &built.cables {
                for (me, other) in [(c.a, c.b), (c.b, c.a)] {
                    if let irn_net::NodeId::Switch(s) = me {
                        radix[s as usize] += 1;
                        if let irn_net::NodeId::Host(_) = other {
                            attachments.insert(s);
                        }
                    }
                }
            }
            let a = attachments.len() as u128;
            let candidates = irn_net::NetTables::build(&built).routes.candidate_ports() as u128;
            let size = TopologySize {
                hosts: built.hosts as u128,
                links: 2 * built.cables.len() as u128,
                setup_bytes: (built.switches as u128 * a + 1) * 4
                    + candidates * 2
                    + a * a * 2
                    + radix.iter().map(|r| r * r * 8).sum::<u128>(),
            };
            assert_eq!(topology_size(spec), size, "{spec:?}");
        }
        // One below the bound is still a valid description.
        Scenario::from_json_str(&format!(
            r#"{{"schema": "scenario-v1", "name": "x", "topology": {small},
                "traffic": {}}}"#,
            poisson((1 << 30) - 1)
        ))
        .unwrap();
    }

    /// Set-up state is bounded where a radix is: the largest geometry
    /// of each kind that fits [`MAX_SETUP_BYTES`] validates, and the next
    /// one is a typed error. Every geometry here is far inside the
    /// 30-bit index bound, so the state alone rejects them.
    #[test]
    fn setup_state_past_its_bound_is_a_typed_error() {
        let check = |spec: TopologySpec| {
            Scenario::builder("x")
                .topology(spec)
                .traffic(TrafficModel::Poisson {
                    load: 0.5,
                    sizes: SizeDistribution::HeavyTailed,
                    flow_count: 10,
                })
                .build()
                .map(drop)
        };
        for (fits, next) in [
            (TopologySpec::FatTree(68), TopologySpec::FatTree(70)),
            (
                TopologySpec::SingleSwitch(11_585),
                TopologySpec::SingleSwitch(11_586),
            ),
            (
                TopologySpec::Dumbbell(8_000, 8_000),
                TopologySpec::Dumbbell(8_192, 8_192),
            ),
        ] {
            assert_eq!(check(fits), Ok(()), "{fits:?}");
            let size = topology_size(next);
            assert!(size.hosts.max(size.links) < MAX_FLOWS, "{next:?}");
            assert_eq!(
                check(next),
                Err(ScenarioError::TopologyTooLarge {
                    hosts: size.hosts,
                    links: size.links,
                    setup_bytes: size.setup_bytes,
                }),
                "{next:?}"
            );
            assert!(size.setup_bytes > MAX_SETUP_BYTES);
            assert!(topology_size(fits).setup_bytes <= MAX_SETUP_BYTES);
        }
    }

    #[test]
    fn parsed_scenario_generates_identical_flows() {
        let s = Scenario::builder("gen")
            .topology(TopologySpec::SingleSwitch(6))
            .traffic(TrafficModel::BurstyPoisson {
                load: 0.5,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: 60,
                duty_cycle: 0.5,
                burst_flows: 4,
            })
            .seed(9)
            .build()
            .unwrap();
        let parsed = Scenario::from_json_str(&s.to_json_string()).unwrap();
        let ctx = TrafficCtx {
            hosts: 6,
            line_rate_bps: 40e9,
            seed: 9,
        };
        assert_eq!(
            parsed.config().traffic.generate(&ctx),
            s.config().traffic.generate(&ctx)
        );
    }

    #[test]
    fn slug_is_filesystem_safe() {
        let s = Scenario::from_config("RoCE (PFC) + Timely/load=70%", ExperimentConfig::quick(10))
            .unwrap();
        assert_eq!(s.slug(), "roce-pfc-timely-load-70");
        let plain = Scenario::from_config("fig1_irn", ExperimentConfig::quick(10)).unwrap();
        assert_eq!(plain.slug(), "fig1_irn");
    }
}
