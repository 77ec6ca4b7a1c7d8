//! Model-Replica + Parameter-Server deployment.
//!
//! Lowers a device-agnostic [`ModelGraph`] onto a partitioned [`Graph`]
//! spanning `W` workers and `S` parameter servers, reproducing the
//! structure the paper describes (§2.2):
//!
//! * every worker holds an identical replica of the computational DAG,
//!   with one `recv` root per parameter it reads and (in training) one
//!   `send` leaf per gradient it produces;
//! * the PS DAG has five ops per parameter: `read`, `send` (one per
//!   worker), `recv` (one per worker), `aggregate` and `update`;
//! * parameters are sharded across parameter servers; each worker–PS pair
//!   communicates over one channel.
//!
//! # Example
//!
//! ```
//! use tictac_cluster::{deploy, ClusterSpec};
//! use tictac_graph::{tiny_mlp, Mode};
//!
//! let model = tiny_mlp(Mode::Training, 8);
//! let deployed = deploy(&model, &ClusterSpec::new(4, 2))?;
//! assert_eq!(deployed.workers().len(), 4);
//! assert_eq!(deployed.parameter_servers().len(), 2);
//! // Each worker receives every parameter.
//! assert_eq!(deployed.recv_op(0, tictac_graph::ParamId::from_index(0)).is_some(), true);
//! # Ok::<(), tictac_cluster::DeployError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sharding;

pub use sharding::Sharding;

use std::error::Error;
use std::fmt;
use tictac_graph::{
    ChannelId, CommParam, CommRole, Cost, DeviceId, Fnv1a, Graph, GraphBuilder, GraphError,
    ModelGraph, NameId, OpId, OpKind, OpName, ParamId,
};
use tictac_sched::Schedule;

/// Communication granularity of a deployment: the partition/fusion
/// lowering passes' thresholds.
///
/// The default (`None`/`None`) disables both passes and reproduces the
/// historical per-parameter lowering byte for byte. `partition_bytes`
/// splits any parameter transfer larger than the threshold into chained
/// chunks that shard independently across parameter servers;
/// `fusion_bytes` coalesces consecutive same-shard transfers smaller than
/// the threshold into one fused transfer, saving the per-transfer latency
/// floor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CommConfig {
    /// Split parameters larger than this many bytes (`None` = never).
    pub partition_bytes: Option<u64>,
    /// Fuse same-shard transfers smaller than this many bytes
    /// (`None` = never).
    pub fusion_bytes: Option<u64>,
}

impl CommConfig {
    /// Both passes disabled — the identity configuration.
    pub fn is_default(&self) -> bool {
        self.partition_bytes.is_none() && self.fusion_bytes.is_none()
    }

    /// Sets the partition threshold.
    pub fn with_partition_bytes(mut self, bytes: Option<u64>) -> Self {
        self.partition_bytes = bytes;
        self
    }

    /// Sets the fusion threshold.
    pub fn with_fusion_bytes(mut self, bytes: Option<u64>) -> Self {
        self.fusion_bytes = bytes;
        self
    }

    /// Stable identity hash for cache keys and run records.
    ///
    /// Returns `0` for the default configuration so records and keys
    /// written before the comm passes existed keep their exact identity.
    pub fn fingerprint(&self) -> u64 {
        if self.is_default() {
            return 0;
        }
        // FNV-1a over a tagged little-endian encoding.
        Fnv1a::new()
            .bytes(b"tictac-comm/v1")
            .u64(self.partition_bytes.map_or(0, |b| b.wrapping_add(1)))
            .u64(self.fusion_bytes.map_or(0, |b| b.wrapping_add(1)))
            .finish()
    }

    /// Rejects degenerate thresholds (a zero threshold is always a
    /// mistake: it would split or fuse nothing meaningfully).
    fn validate(&self) -> Result<(), DeployError> {
        if self.partition_bytes == Some(0) {
            return Err(DeployError::InvalidCommConfig {
                field: "partition_bytes",
            });
        }
        if self.fusion_bytes == Some(0) {
            return Err(DeployError::InvalidCommConfig {
                field: "fusion_bytes",
            });
        }
        Ok(())
    }
}

/// Shape of the deployment, optionally heterogeneous.
///
/// Construct with [`ClusterSpec::new`] / [`ClusterSpec::try_new`] for a
/// homogeneous cluster, or [`ClusterSpec::builder`] to attach per-device
/// speed factors and per-link bandwidth factors. Direct struct-literal
/// construction is no longer possible outside this crate — the
/// heterogeneity tables are private so every spec passes validation.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of workers (model replicas).
    pub workers: usize,
    /// Number of parameter servers.
    pub parameter_servers: usize,
    /// How parameters are assigned to parameter servers.
    pub sharding: Sharding,
    /// Relative worker speed factors (empty = uniform; else one per
    /// worker). `2.0` = twice the platform reference throughput.
    worker_speeds: Vec<f64>,
    /// Relative PS speed factors (empty = uniform; else one per server).
    ps_speeds: Vec<f64>,
    /// Relative link bandwidth factors: empty = uniform, length `W` = one
    /// factor per worker uplink (applied to all of that worker's
    /// channels), length `W × S` = full row-major worker×PS matrix.
    link_bandwidths: Vec<f64>,
    /// Communication granularity (partition/fusion thresholds). Default =
    /// both passes off.
    comm: CommConfig,
}

impl PartialEq for ClusterSpec {
    fn eq(&self, other: &Self) -> bool {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        self.workers == other.workers
            && self.parameter_servers == other.parameter_servers
            && self.sharding == other.sharding
            && bits(&self.worker_speeds) == bits(&other.worker_speeds)
            && bits(&self.ps_speeds) == bits(&other.ps_speeds)
            && bits(&self.link_bandwidths) == bits(&other.link_bandwidths)
            && self.comm == other.comm
    }
}

impl Eq for ClusterSpec {}

impl std::hash::Hash for ClusterSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.workers.hash(state);
        self.parameter_servers.hash(state);
        self.sharding.hash(state);
        for v in [&self.worker_speeds, &self.ps_speeds, &self.link_bandwidths] {
            v.len().hash(state);
            for f in v {
                f.to_bits().hash(state);
            }
        }
        // Only a non-default comm config contributes, so specs built
        // before the comm passes existed hash to their pre-pass values
        // (the DeployCache identity guarantee).
        if !self.comm.is_default() {
            self.comm.hash(state);
        }
    }
}

impl ClusterSpec {
    /// A spec with the default size-balanced sharding.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape (zero workers or zero parameter
    /// servers); use [`ClusterSpec::try_new`] to handle that as a value.
    pub fn new(workers: usize, parameter_servers: usize) -> Self {
        match Self::try_new(workers, parameter_servers) {
            Ok(spec) => spec,
            Err(e) => panic!("invalid cluster shape: {e}"),
        }
    }

    /// A spec with the default size-balanced sharding, rejecting
    /// degenerate shapes with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterSpecError::ZeroWorkers`],
    /// [`ClusterSpecError::ZeroParameterServers`] or, for more than 2^16
    /// workers and parameter servers together,
    /// [`ClusterSpecError::TooManyDevices`]. Shapes that only turn
    /// out degenerate against a concrete model — more PS shards than the
    /// model has parameters — are rejected by [`deploy`] instead
    /// ([`DeployError::ShardsExceedParams`]).
    pub fn try_new(workers: usize, parameter_servers: usize) -> Result<Self, ClusterSpecError> {
        if workers == 0 {
            return Err(ClusterSpecError::ZeroWorkers);
        }
        if parameter_servers == 0 {
            return Err(ClusterSpecError::ZeroParameterServers);
        }
        let devices = workers.saturating_add(parameter_servers);
        if devices > MAX_DEVICES {
            return Err(ClusterSpecError::TooManyDevices { devices });
        }
        Ok(Self {
            workers,
            parameter_servers,
            sharding: Sharding::SizeBalanced,
            worker_speeds: Vec::new(),
            ps_speeds: Vec::new(),
            link_bandwidths: Vec::new(),
            comm: CommConfig::default(),
        })
    }

    /// A builder with typed setters for shape, sharding, device speeds
    /// and link bandwidths; [`ClusterSpecBuilder::build`] runs the same
    /// validation as [`ClusterSpec::try_new`] plus heterogeneity checks.
    pub fn builder() -> ClusterSpecBuilder {
        ClusterSpecBuilder::default()
    }

    /// Overrides the sharding policy.
    pub fn with_sharding(mut self, sharding: Sharding) -> Self {
        self.sharding = sharding;
        self
    }

    /// Overrides the communication granularity (partition/fusion passes).
    pub fn with_comm(mut self, comm: CommConfig) -> Self {
        self.comm = comm;
        self
    }

    /// The communication granularity this spec deploys with.
    pub fn comm(&self) -> CommConfig {
        self.comm
    }

    /// Whether every device and link runs at the platform reference rate.
    pub fn is_uniform(&self) -> bool {
        self.worker_speeds.is_empty()
            && self.ps_speeds.is_empty()
            && self.link_bandwidths.is_empty()
    }

    /// The relative speed factor of worker `w` (`1.0` = reference).
    pub fn worker_speed(&self, w: usize) -> f64 {
        self.worker_speeds.get(w).copied().unwrap_or(1.0)
    }

    /// The relative speed factor of PS shard `s` (`1.0` = reference).
    pub fn ps_speed(&self, s: usize) -> f64 {
        self.ps_speeds.get(s).copied().unwrap_or(1.0)
    }

    /// The relative bandwidth factor of the link between worker `w` and
    /// PS shard `s` (`1.0` = reference).
    pub fn link_bandwidth(&self, w: usize, s: usize) -> f64 {
        if self.link_bandwidths.is_empty() {
            1.0
        } else if self.link_bandwidths.len() == self.workers {
            // One factor per worker uplink.
            self.link_bandwidths[w]
        } else {
            // Full row-major worker × PS matrix.
            self.link_bandwidths[w * self.parameter_servers + s]
        }
    }
}

/// The most devices, workers and parameter servers together, a cluster
/// can hold: a [`DeviceId`] is a `u16`.
const MAX_DEVICES: usize = 1 << 16;

/// The factors a spec accepts: the range in which a service time's float
/// arithmetic — the fair-share stretch `share / f`, `flops / f` — stays
/// finite for any cluster size. (`1e-308` is a normal float with a finite
/// reciprocal, and `2.0 / 1e-308` is already infinite.) How *long* the
/// resulting iteration may be is a separate bound, DESIGN.md §5.
const MIN_FACTOR: f64 = 1e-280;
const MAX_FACTOR: f64 = 1e280;

/// Builder for [`ClusterSpec`] — the only way to construct a
/// heterogeneous spec.
///
/// ```
/// use tictac_cluster::ClusterSpec;
///
/// let spec = ClusterSpec::builder()
///     .workers(3)
///     .parameter_servers(1)
///     .worker_speeds(vec![1.0, 1.0, 0.5]) // one straggler at half speed
///     .build()?;
/// assert!(!spec.is_uniform());
/// assert_eq!(spec.worker_speed(2), 0.5);
/// # Ok::<(), tictac_cluster::ClusterSpecError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClusterSpecBuilder {
    workers: usize,
    parameter_servers: usize,
    worker_speeds: Vec<f64>,
    ps_speeds: Vec<f64>,
    link_bandwidths: Vec<f64>,
}

impl ClusterSpecBuilder {
    /// Sets the number of workers (model replicas).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the number of parameter servers.
    pub fn parameter_servers(mut self, parameter_servers: usize) -> Self {
        self.parameter_servers = parameter_servers;
        self
    }

    /// Sets per-worker relative speed factors (one per worker).
    pub fn worker_speeds(mut self, speeds: Vec<f64>) -> Self {
        self.worker_speeds = speeds;
        self
    }

    /// Sets per-PS relative speed factors (one per server).
    pub fn ps_speeds(mut self, speeds: Vec<f64>) -> Self {
        self.ps_speeds = speeds;
        self
    }

    /// Sets relative link bandwidth factors: either one per worker uplink
    /// (length `W`) or a full row-major worker × PS matrix (length
    /// `W × S`).
    pub fn link_bandwidths(mut self, bandwidths: Vec<f64>) -> Self {
        self.link_bandwidths = bandwidths;
        self
    }

    /// Validates and builds the spec.
    ///
    /// All-`1.0` factor vectors are normalized to the empty (uniform)
    /// encoding, so a builder fed explicit `1.0`s produces a spec equal —
    /// and hashing identically — to [`ClusterSpec::new`]'s.
    ///
    /// # Errors
    ///
    /// Returns the [`ClusterSpecError`] for a degenerate shape, a factor
    /// vector of the wrong length, or a factor outside `[1e-280, 1e280]`
    /// (which zero, negative and non-finite values all are).
    pub fn build(self) -> Result<ClusterSpec, ClusterSpecError> {
        let mut spec = ClusterSpec::try_new(self.workers, self.parameter_servers)?;
        let check = |field: &'static str, v: &[f64], expected: &[usize]| {
            if !v.is_empty() && !expected.contains(&v.len()) {
                return Err(ClusterSpecError::FactorLength {
                    field,
                    expected: expected[0],
                    got: v.len(),
                });
            }
            for &f in v {
                if !(MIN_FACTOR..=MAX_FACTOR).contains(&f) {
                    return Err(ClusterSpecError::NonPositiveFactor { field, value: f });
                }
            }
            Ok(())
        };
        check("worker_speeds", &self.worker_speeds, &[self.workers])?;
        check("ps_speeds", &self.ps_speeds, &[self.parameter_servers])?;
        check(
            "link_bandwidths",
            &self.link_bandwidths,
            &[self.workers, self.workers * self.parameter_servers],
        )?;
        // Canonicalize: all-1.0 IS uniform; empty is its one encoding.
        let normalize = |v: Vec<f64>| {
            if v.iter().all(|&f| f == 1.0) {
                Vec::new()
            } else {
                v
            }
        };
        spec.worker_speeds = normalize(self.worker_speeds);
        spec.ps_speeds = normalize(self.ps_speeds);
        spec.link_bandwidths = normalize(self.link_bandwidths);
        Ok(spec)
    }
}

/// Errors from [`ClusterSpec::try_new`] and [`ClusterSpecBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ClusterSpecError {
    /// The spec requested zero workers.
    ZeroWorkers,
    /// The spec requested zero parameter servers.
    ZeroParameterServers,
    /// The spec requested more than 2^16 devices, workers and parameter
    /// servers together: more than a [`DeviceId`] can number.
    TooManyDevices {
        /// Workers plus parameter servers.
        devices: usize,
    },
    /// A heterogeneity factor vector does not match the cluster shape.
    FactorLength {
        /// Which builder field was malformed.
        field: &'static str,
        /// The primary expected length.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// A speed or bandwidth factor was zero, negative, non-finite or
    /// outside `[1e-280, 1e280]`.
    NonPositiveFactor {
        /// Which builder field was malformed.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ClusterSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterSpecError::ZeroWorkers => f.write_str("cluster needs at least one worker"),
            ClusterSpecError::ZeroParameterServers => {
                f.write_str("cluster needs at least one parameter server")
            }
            ClusterSpecError::TooManyDevices { devices } => too_many_devices(f, *devices),
            ClusterSpecError::FactorLength {
                field,
                expected,
                got,
            } => write!(
                f,
                "{field} has {got} entries but the cluster shape expects {expected}"
            ),
            ClusterSpecError::NonPositiveFactor { field, value } => {
                write!(
                    f,
                    "{field} factors must lie in [1e-280, 1e280], got {value:e}"
                )
            }
        }
    }
}

impl Error for ClusterSpecError {}

/// The message of both `TooManyDevices` errors.
fn too_many_devices(f: &mut fmt::Formatter<'_>, devices: usize) -> fmt::Result {
    write!(
        f,
        "{devices} workers and parameter servers exceed the {MAX_DEVICES} devices a cluster can hold"
    )
}

/// Errors from [`deploy`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeployError {
    /// The spec requested zero workers or zero parameter servers.
    EmptyCluster,
    /// The spec requested more than 2^16 devices, workers and parameter
    /// servers together: more than a [`DeviceId`] can number.
    TooManyDevices {
        /// Workers plus parameter servers.
        devices: usize,
    },
    /// The model has no parameters to distribute.
    NoParameters,
    /// The spec requested more PS shards than the model has parameters,
    /// which would leave at least one shard hosting nothing (and hence
    /// silently idle at every iteration).
    ShardsExceedParams {
        /// Requested parameter-server count.
        shards: usize,
        /// Parameters the model actually has.
        params: usize,
    },
    /// A communication threshold was degenerate (zero bytes).
    InvalidCommConfig {
        /// Which [`CommConfig`] field was malformed.
        field: &'static str,
    },
    /// Graph construction failed (indicates a malformed model graph).
    Graph(GraphError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::EmptyCluster => {
                f.write_str("cluster needs at least one worker and one parameter server")
            }
            DeployError::TooManyDevices { devices } => too_many_devices(f, *devices),
            DeployError::NoParameters => f.write_str("model has no parameters to distribute"),
            DeployError::ShardsExceedParams { shards, params } => write!(
                f,
                "{shards} PS shards requested but the model has only {params} parameters"
            ),
            DeployError::InvalidCommConfig { field } => {
                write!(f, "comm config {field} must be at least 1 byte")
            }
            DeployError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl Error for DeployError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeployError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for DeployError {
    fn from(e: GraphError) -> Self {
        DeployError::Graph(e)
    }
}

/// A model deployed on a simulated MR+PS cluster.
#[derive(Debug, Clone)]
pub struct DeployedModel {
    graph: Graph,
    workers: Vec<DeviceId>,
    parameter_servers: Vec<DeviceId>,
    /// `recv_ops[w][u]` — worker `w`'s recv of transfer unit `u` (fused
    /// units share one op id).
    recv_ops: Vec<Vec<OpId>>,
    /// Transfer unit → PS shard index.
    shard_of: Vec<usize>,
    /// Transfer unit → (model parameter index, chunk index). `None` =
    /// the whole tensor (the identity lowering).
    origin: Vec<(usize, Option<u16>)>,
}

impl DeployedModel {
    /// The partitioned graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Worker device ids, in worker-index order.
    pub fn workers(&self) -> &[DeviceId] {
        &self.workers
    }

    /// Parameter-server device ids, in shard-index order.
    pub fn parameter_servers(&self) -> &[DeviceId] {
        &self.parameter_servers
    }

    /// Worker `w`'s recv op for parameter `p`.
    pub fn recv_op(&self, worker: usize, param: ParamId) -> Option<OpId> {
        self.recv_ops
            .get(worker)
            .and_then(|r| r.get(param.index()))
            .copied()
    }

    /// Maps a graph parameter (transfer unit) back to the model parameter
    /// it was lowered from, plus its chunk index (`None` = whole tensor).
    ///
    /// # Panics
    ///
    /// Panics if `param` is out of range.
    pub fn unit_origin(&self, param: ParamId) -> (usize, Option<u16>) {
        self.origin[param.index()]
    }

    /// Replicates a schedule computed on worker 0 (the paper's *reference
    /// worker*, §4) to the same parameter order on every worker.
    ///
    /// # Panics
    ///
    /// Panics if `reference` does not cover this deployment's graph.
    pub fn replicate_schedule(&self, reference: &Schedule) -> Schedule {
        assert_eq!(reference.len(), self.graph.len(), "schedule/graph mismatch");
        let priorities = (0..self.shard_of.len())
            .map(ParamId::from_index)
            .filter_map(|param| Some((param, reference.priority(self.recv_op(0, param)?)?)))
            .flat_map(|(param, priority)| {
                (0..self.workers.len())
                    .filter_map(move |w| Some((self.recv_op(w, param)?, priority)))
            });
        Schedule::from_priorities(self.graph.len(), priorities)
    }

    /// Ops per worker partition (the x-axis of Fig. 11).
    pub fn ops_per_worker(&self) -> usize {
        self.graph.device_ops(self.workers[0]).len()
    }
}

/// One PS→worker transfer after the partition pass: either a whole model
/// parameter or one chunk of a split one. Units are what the graph's
/// parameter table, the sharding assignment and `recv_ops` index.
struct Unit {
    /// Model parameter index this unit came from.
    param: usize,
    /// Chunk index (`None` = the whole tensor).
    chunk: Option<u16>,
    /// Elements carried by this unit (chunk sums are exact).
    elems: u64,
    /// Bytes carried by this unit (chunk sums are exact).
    bytes: u64,
}

/// The partition pass: splits every parameter larger than
/// `partition_bytes` into `ceil(bytes / partition_bytes)` chunks (capped
/// at one element per chunk) so the size-balanced sharder can spread a
/// giant tensor across PS shards. Byte and element totals are preserved
/// exactly; with the threshold unset this is the identity.
fn transfer_units(model: &ModelGraph, comm: CommConfig) -> Vec<Unit> {
    let mut units = Vec::with_capacity(model.params().len());
    for (i, p) in model.params().iter().enumerate() {
        let (bytes, elems) = (p.bytes(), p.elems());
        let k = match comm.partition_bytes {
            Some(part) if bytes > part && elems > 1 => {
                bytes.div_ceil(part).min(elems).min(u64::from(u16::MAX))
            }
            _ => 1,
        };
        if k <= 1 {
            units.push(Unit {
                param: i,
                chunk: None,
                elems,
                bytes,
            });
        } else {
            for j in 0..k {
                units.push(Unit {
                    param: i,
                    chunk: Some(j as u16),
                    elems: elems / k + u64::from(j < elems % k),
                    bytes: bytes / k + u64::from(j < bytes % k),
                });
            }
        }
    }
    units
}

/// A transfer group after the fusion pass: one send/recv pair per group
/// per worker, and one send_grad/recv_grad pair when a member carries a
/// gradient.
struct TransferGroup {
    /// Member unit indices, in unit order: one unit, or several small
    /// same-shard ones that travel as one transfer.
    members: Vec<usize>,
    /// A multi-member group's fusion id (rendered as `fused{id}`),
    /// numbered across shards in emission order.
    fused: Option<u32>,
}

/// The fusion pass: greedily coalesces consecutive same-shard whole-tensor
/// units smaller than `fusion_bytes` until a group reaches the threshold.
/// Chunk units and large units always stay alone, and so does a unit that
/// ends up with no same-shard partner: with the threshold unset this
/// emits one single-member group per unit in unit order — the identity.
fn fusion_groups(units: &[Unit], shard_of: &[usize], fusion: Option<u64>) -> Vec<TransferGroup> {
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(units.len());
    if let Some(fuse) = fusion {
        let shards = shard_of.iter().copied().max().map_or(1, |s| s + 1);
        let mut pending: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut acc = vec![0u64; shards];
        for (u, unit) in units.iter().enumerate() {
            let s = shard_of[u];
            if unit.chunk.is_some() || unit.bytes >= fuse {
                groups.push(vec![u]);
                continue;
            }
            pending[s].push(u);
            acc[s] += unit.bytes;
            if acc[s] >= fuse {
                acc[s] = 0;
                groups.push(std::mem::take(&mut pending[s]));
            }
        }
        groups.extend(pending.into_iter().filter(|p| !p.is_empty()));
        // Deterministic emission order: by first member unit index.
        groups.sort_by_key(|members| members[0]);
    } else {
        groups.extend((0..units.len()).map(|u| vec![u]));
    }
    // Fusion ids in emission order, unique across shards so rendered
    // `fused{id}` names never collide.
    let mut next_id = 0;
    groups
        .into_iter()
        .map(|members| {
            let fused = (members.len() > 1).then(|| {
                next_id += 1;
                next_id - 1
            });
            TransferGroup { members, fused }
        })
        .collect()
}

/// What `deploy` decides before it adds an op: the partition pass's
/// transfer units, each unit's shard, the fusion pass's groups and each
/// model parameter's gradient producers (none for inference).
struct Lowering {
    units: Vec<Unit>,
    shard_of: Vec<usize>,
    groups: Vec<TransferGroup>,
    grad_producers: Vec<Vec<usize>>,
}

impl Lowering {
    fn new(model: &ModelGraph, spec: &ClusterSpec) -> Result<Self, DeployError> {
        // Partition pass: lower parameters to transfer units before
        // sharding, so chunks of one split tensor can land on different
        // shards.
        let units = transfer_units(model, spec.comm);
        if spec.parameter_servers > units.len() {
            return Err(DeployError::ShardsExceedParams {
                shards: spec.parameter_servers,
                params: units.len(),
            });
        }
        let unit_bytes: Vec<u64> = units.iter().map(|u| u.bytes).collect();
        let shard_of = spec
            .sharding
            .assign_weighted(&unit_bytes, spec.parameter_servers);
        // Fusion pass: group small same-shard transfers.
        let groups = fusion_groups(&units, &shard_of, spec.comm.fusion_bytes);
        // Gradient producers per parameter, computed once for all workers
        // (this was previously an O(params × ops) rescan per worker).
        let mut grad_producers: Vec<Vec<usize>> = vec![Vec::new(); model.params().len()];
        if model.is_training() {
            for (id, mop) in model.ops_enumerated() {
                for g in mop.produces_grads() {
                    grad_producers[g.index()].push(id.index());
                }
            }
        }
        Ok(Self {
            units,
            shard_of,
            groups,
            grad_producers,
        })
    }

    /// Whether unit `u` carries a gradient.
    fn has_grad(&self, u: usize) -> bool {
        !self.grad_producers[self.units[u].param].is_empty()
    }

    /// Exactly the number of ops `deploy` adds on `workers` workers, its
    /// builder's capacity: a read per unit; per worker a send and a recv
    /// per group, the replica's compute ops, and a gradient send and recv
    /// per group that carries a gradient; then an aggregate and an update
    /// per unit that has one.
    fn op_count(&self, model: &ModelGraph, workers: usize) -> usize {
        let grad_groups = self
            .groups
            .iter()
            .filter(|g| g.members.iter().any(|&m| self.has_grad(m)))
            .count();
        let grad_units = (0..self.units.len()).filter(|&u| self.has_grad(u)).count();
        self.units.len()
            + workers * (2 * self.groups.len() + model.ops().len() + 2 * grad_groups)
            + 2 * grad_units
    }
}

/// Deploys `model` onto a cluster of the given shape.
///
/// # Errors
///
/// Returns [`DeployError::EmptyCluster`] for a zero-sized spec,
/// [`DeployError::TooManyDevices`] for one of more than 2^16 devices,
/// [`DeployError::NoParameters`] for a parameterless model,
/// [`DeployError::InvalidCommConfig`] for a zero-byte comm threshold, or a
/// wrapped [`GraphError`] if construction produces an invalid graph (which
/// would be a bug in the lowering).
pub fn deploy(model: &ModelGraph, spec: &ClusterSpec) -> Result<DeployedModel, DeployError> {
    if spec.workers == 0 || spec.parameter_servers == 0 {
        return Err(DeployError::EmptyCluster);
    }
    let devices = spec.workers.saturating_add(spec.parameter_servers);
    if devices > MAX_DEVICES {
        return Err(DeployError::TooManyDevices { devices });
    }
    if model.params().is_empty() {
        return Err(DeployError::NoParameters);
    }
    spec.comm.validate()?;
    let lowering = Lowering::new(model, spec)?;
    let mut b = GraphBuilder::with_capacity(lowering.op_count(model, spec.workers));

    // Devices and channels.
    let workers: Vec<DeviceId> = (0..spec.workers)
        .map(|w| b.add_worker(format!("worker/{w}")))
        .collect();
    let ps: Vec<DeviceId> = (0..spec.parameter_servers)
        .map(|s| b.add_parameter_server(format!("ps/{s}")))
        .collect();
    let channels: Vec<Vec<ChannelId>> = workers
        .iter()
        .map(|&w| ps.iter().map(|&s| b.add_channel(w, s)).collect())
        .collect();

    // Heterogeneity side tables. Skipped entirely for uniform specs so
    // homogeneous deployments build the exact graph they always did.
    if !spec.is_uniform() {
        for (w, &dev) in workers.iter().enumerate() {
            b.set_device_speed(dev, spec.worker_speed(w));
        }
        for (s, &dev) in ps.iter().enumerate() {
            b.set_device_speed(dev, spec.ps_speed(s));
        }
        for (w, row) in channels.iter().enumerate() {
            for (s, &ch) in row.iter().enumerate() {
                b.set_channel_bandwidth(ch, spec.link_bandwidth(w, s));
            }
        }
    }

    // Parameters and names: one graph parameter per transfer unit, named
    // `{param}` or `{param}.part{j}`, which the communication ops' names
    // refer to by id; model-op names are interned once up front. Every op
    // below carries a compact structured `OpName` instead of a freshly
    // formatted `String`.
    let Lowering {
        units,
        shard_of,
        groups,
        grad_producers,
    } = &lowering;
    let params: Vec<ParamId> = units
        .iter()
        .map(|u| {
            let p = &model.params()[u.param];
            match u.chunk {
                None => b.add_param(p.name(), u.bytes),
                Some(j) => b.add_param(format!("{}.part{j}", p.name()), u.bytes),
            }
        })
        .collect();
    let mop_names: Vec<NameId> = model.ops().iter().map(|o| b.intern(o.name())).collect();
    for (p, &shard) in params.iter().zip(shard_of) {
        b.assign_param_to_ps(*p, ps[shard]);
    }
    // Lossless: a cluster has at most `MAX_DEVICES` devices.
    let comm = |role, shard: usize, worker: usize, param| OpName::Comm {
        role,
        shard: shard as u16,
        worker: worker as u16,
        param,
    };
    // What a group's transfers carry: its one unit or its fused id.
    let carried = |g: &TransferGroup| match g.fused {
        Some(id) => CommParam::Fused(id),
        None => CommParam::Param(params[g.members[0]]),
    };

    // Model parameter -> its transfer units (identity without the
    // partition pass: exactly one unit per parameter).
    let mut param_units: Vec<Vec<usize>> = vec![Vec::new(); model.params().len()];
    for (u, unit) in units.iter().enumerate() {
        param_units[unit.param].push(u);
    }

    // PS-side read ops (one per transfer unit, shared by all workers).
    let read_ops: Vec<OpId> = units
        .iter()
        .zip(shard_of)
        .enumerate()
        .map(|(u, (unit, &shard))| {
            b.add_op_named(
                comm(CommRole::Read, shard, 0, CommParam::Param(params[u])),
                ps[shard],
                OpKind::Read { param: params[u] },
                Cost::flops(unit.elems as f64),
                &[],
            )
        })
        .collect();

    // Per-worker replicas.
    let mut recv_ops: Vec<Vec<OpId>> = Vec::with_capacity(spec.workers);
    // grad recvs at PS: grad_recvs[u] across workers.
    let mut grad_recvs: Vec<Vec<OpId>> = vec![Vec::new(); units.len()];
    // Dependency scratch, reused across every op of every replica.
    let mut deps: Vec<OpId> = Vec::new();
    // Chain scratch: the previous chunk's send (resp. send_grad) of each
    // split parameter, per worker. Chained chunks: each send also waits
    // for the previous chunk of the same tensor, preserving in-order wire
    // transmission (sends are cheap; the recvs still overlap across
    // channels). A chunk is always a group of its own.
    let mut last_chunk_send: Vec<Option<OpId>> = vec![None; model.params().len()];
    let split = |u: usize| units[u].chunk.map(|_| units[u].param);

    for (w, &worker) in workers.iter().enumerate() {
        // Parameter transfers PS -> worker, one per transfer group.
        let mut w_recvs: Vec<OpId> = vec![OpId::from_index(0); units.len()];
        last_chunk_send.fill(None);
        for group in groups {
            let first = group.members[0];
            let shard = shard_of[first];
            let ch = channels[w][shard];
            deps.clear();
            deps.extend(group.members.iter().map(|&m| read_ops[m]));
            deps.extend(split(first).and_then(|p| last_chunk_send[p]));
            let bytes = group.members.iter().map(|&m| units[m].bytes).sum();
            let send = b.add_op_named(
                comm(CommRole::Send, shard, w, carried(group)),
                ps[shard],
                OpKind::send(params[first], ch),
                Cost::bytes(bytes),
                &deps,
            );
            if let Some(p) = split(first) {
                last_chunk_send[p] = Some(send);
            }
            let recv = b.add_op_named(
                comm(CommRole::Recv, shard, w, carried(group)),
                worker,
                OpKind::recv(params[first], ch),
                Cost::bytes(bytes),
                &[send],
            );
            for &m in &group.members {
                w_recvs[m] = recv;
            }
        }

        // Replica compute ops.
        let mut op_map: Vec<OpId> = Vec::with_capacity(model.ops().len());
        for (mi, mop) in model.ops().iter().enumerate() {
            deps.clear();
            deps.extend(mop.preds().iter().map(|p| op_map[p.index()]));
            for p in mop.reads_params() {
                deps.extend(param_units[p.index()].iter().map(|&u| w_recvs[u]));
            }
            let id = b.add_op_named(
                OpName::WorkerOp {
                    worker: w as u32,
                    op: mop_names[mi],
                },
                worker,
                OpKind::Compute,
                Cost::flops(mop.flops()),
                &deps,
            );
            op_map.push(id);
        }

        // Gradient path: worker send -> PS recv, per transfer group, of
        // the members that carry a gradient.
        last_chunk_send.fill(None);
        for group in groups {
            let with_grad = || {
                group
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| lowering.has_grad(m))
            };
            let Some(first) = with_grad().next() else {
                continue;
            };
            let shard = shard_of[first];
            let ch = channels[w][shard];
            deps.clear();
            for m in with_grad() {
                deps.extend(grad_producers[units[m].param].iter().map(|&mi| op_map[mi]));
            }
            deps.extend(split(first).and_then(|p| last_chunk_send[p]));
            let bytes = with_grad().map(|m| units[m].bytes).sum();
            let send = b.add_op_named(
                comm(CommRole::SendGrad, shard, w, carried(group)),
                worker,
                OpKind::send(params[first], ch),
                Cost::bytes(bytes),
                &deps,
            );
            if let Some(p) = split(first) {
                last_chunk_send[p] = Some(send);
            }
            let recv = b.add_op_named(
                comm(CommRole::RecvGrad, shard, w, carried(group)),
                ps[shard],
                OpKind::recv(params[first], ch),
                Cost::bytes(bytes),
                &[send],
            );
            for m in with_grad() {
                grad_recvs[m].push(recv);
            }
        }
        recv_ops.push(w_recvs);
    }

    // PS-side aggregation and update, one pair per transfer unit that
    // carries a gradient (fusion only coalesces the wire transfers; state
    // updates stay per unit).
    for (u, unit) in units.iter().enumerate() {
        if grad_recvs[u].is_empty() {
            continue;
        }
        let (shard, param) = (shard_of[u], CommParam::Param(params[u]));
        let agg = b.add_op_named(
            comm(CommRole::Aggregate, shard, 0, param),
            ps[shard],
            OpKind::Aggregate { param: params[u] },
            Cost::flops((unit.elems * spec.workers as u64) as f64),
            &grad_recvs[u],
        );
        b.add_op_named(
            comm(CommRole::Update, shard, 0, param),
            ps[shard],
            OpKind::Update { param: params[u] },
            Cost::flops(2.0 * unit.elems as f64),
            &[agg],
        );
    }

    let graph = b.build()?;
    Ok(DeployedModel {
        graph,
        workers,
        parameter_servers: ps,
        recv_ops,
        shard_of: lowering.shard_of,
        origin: lowering.units.iter().map(|u| (u.param, u.chunk)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_graph::{tiny_mlp, Mode};

    /// The channel between worker index `w` and PS index `s`.
    fn channel(d: &DeployedModel, w: usize, s: usize) -> ChannelId {
        d.graph()
            .channel_between(d.workers()[w], d.parameter_servers()[s])
            .unwrap()
    }

    fn mlp_cluster(workers: usize, servers: usize, mode: Mode) -> DeployedModel {
        let model = tiny_mlp(mode, 8);
        deploy(&model, &ClusterSpec::new(workers, servers)).unwrap()
    }

    #[test]
    fn training_deployment_has_five_ps_ops_per_param_per_shard() {
        let d = mlp_cluster(2, 1, Mode::Training);
        let g = d.graph();
        let n_params = 4; // tiny_mlp
        let ps_dev = d.parameter_servers()[0];
        let ps_ops: Vec<_> = g.ops_on(ps_dev).collect();
        // read + update + aggregate per param, send + recv per param per worker.
        let expected = n_params * (3 + 2 * 2);
        assert_eq!(ps_ops.len(), expected);
        // Worker recv roots: every param received by every worker.
        for w in 0..2 {
            assert_eq!(g.recv_ops_on(d.workers()[w]).len(), n_params);
        }
    }

    #[test]
    fn inference_deployment_has_no_gradient_path() {
        let d = mlp_cluster(2, 1, Mode::Inference);
        let g = d.graph();
        // No aggregate/update ops anywhere.
        assert_eq!(
            g.count_ops(|o| matches!(o.kind(), OpKind::Aggregate { .. })),
            0
        );
        assert_eq!(
            g.count_ops(|o| matches!(o.kind(), OpKind::Update { .. })),
            0
        );
        // Workers send nothing.
        for &w in d.workers() {
            assert_eq!(
                g.ops_on(w).filter(|&id| g.op(id).kind().is_send()).count(),
                0
            );
        }
    }

    #[test]
    fn recv_ops_are_roots_within_worker_partition() {
        let d = mlp_cluster(3, 2, Mode::Training);
        let g = d.graph();
        for (w, &worker) in d.workers().iter().enumerate() {
            for recv in g.recv_ops_on(worker) {
                // The only predecessor is the PS-side send.
                for &p in g.preds(recv) {
                    assert!(g.device(g.op(p).device()).is_parameter_server());
                }
                // And it belongs to worker w.
                assert_eq!(g.op(recv).device(), worker);
            }
            let _ = w;
        }
    }

    #[test]
    fn channels_connect_each_pair_once() {
        let d = mlp_cluster(3, 2, Mode::Inference);
        let g = d.graph();
        assert_eq!(g.channels().len(), 6);
        for w in 0..3 {
            for s in 0..2 {
                let ch = g
                    .channel_between(d.workers()[w], d.parameter_servers()[s])
                    .unwrap();
                assert_eq!(g.channel(ch).worker(), d.workers()[w]);
                assert_eq!(g.channel(ch).ps(), d.parameter_servers()[s]);
            }
        }
    }

    #[test]
    fn sharding_spreads_bytes_across_servers() {
        let d = mlp_cluster(1, 2, Mode::Inference);
        let g = d.graph();
        let mut bytes = [0u64; 2];
        for (i, p) in g.params().iter().enumerate() {
            bytes[d.shard_of[i]] += p.bytes();
        }
        assert!(bytes[0] > 0 && bytes[1] > 0, "both shards used: {bytes:?}");
    }

    #[test]
    fn replicate_schedule_copies_reference_priorities() {
        let d = mlp_cluster(3, 1, Mode::Inference);
        let schedule = tictac_sched::tic(d.graph(), d.workers()[0]);
        let replicated = d.replicate_schedule(&schedule);
        for p in 0..4 {
            let param = ParamId::from_index(p);
            let p0 = replicated.priority(d.recv_op(0, param).unwrap());
            assert!(p0.is_some());
            for w in 1..3 {
                let pw = replicated.priority(d.recv_op(w, param).unwrap());
                assert_eq!(p0, pw, "worker {w} param {p}");
            }
        }
    }

    #[test]
    fn graph_passes_validation_and_is_acyclic() {
        let d = mlp_cluster(4, 2, Mode::Training);
        assert!(d.graph().check().is_ok());
        assert!(tictac_graph::topo::is_acyclic(d.graph()));
    }

    #[test]
    fn rejects_empty_cluster_and_empty_model() {
        let model = tiny_mlp(Mode::Inference, 1);
        // `try_new` catches degenerate shapes before any model is in hand…
        assert_eq!(
            ClusterSpec::try_new(0, 1).unwrap_err(),
            ClusterSpecError::ZeroWorkers
        );
        assert_eq!(
            ClusterSpec::try_new(1, 0).unwrap_err(),
            ClusterSpecError::ZeroParameterServers
        );
        // …and `deploy` still guards hand-mutated specs (the public
        // shape fields stay writable; the builder is the validated path).
        let mut zero_workers = ClusterSpec::new(1, 1);
        zero_workers.workers = 0;
        assert_eq!(
            deploy(&model, &zero_workers).unwrap_err(),
            DeployError::EmptyCluster
        );
    }

    /// A cluster holds at most 2^16 devices (a `DeviceId` is a `u16`):
    /// `try_new`, the builder and `deploy` refuse one more, the last
    /// before it builds anything, plain or fused alike.
    #[test]
    fn refuses_more_devices_than_a_device_id_numbers() {
        assert!(ClusterSpec::try_new(65_535, 1).is_ok());
        let too_many = ClusterSpecError::TooManyDevices { devices: 65_537 };
        assert_eq!(ClusterSpec::try_new(65_536, 1).unwrap_err(), too_many);
        assert_eq!(ClusterSpec::try_new(1, 65_536).unwrap_err(), too_many);
        let built = ClusterSpec::builder()
            .workers(65_536)
            .parameter_servers(1)
            .build();
        assert_eq!(built.unwrap_err(), too_many);
        assert!(too_many.to_string().contains("the 65536 devices"));

        let model = tiny_mlp(Mode::Training, 1);
        let fused = CommConfig::default().with_fusion_bytes(Some(1 << 20));
        for spec in [
            ClusterSpec::new(1, 1),
            ClusterSpec::new(1, 1).with_comm(fused),
        ] {
            for workers in [65_536, usize::MAX] {
                let mut spec = spec.clone();
                spec.workers = workers;
                let devices = workers.saturating_add(1);
                assert_eq!(
                    deploy(&model, &spec).unwrap_err(),
                    DeployError::TooManyDevices { devices }
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one parameter server")]
    fn new_panics_on_degenerate_shape() {
        ClusterSpec::new(4, 0);
    }

    #[test]
    fn rejects_more_shards_than_params() {
        // tiny_mlp has 4 parameters; 5 shards would leave one idle.
        let model = tiny_mlp(Mode::Training, 1);
        assert_eq!(
            deploy(&model, &ClusterSpec::new(2, 5)).unwrap_err(),
            DeployError::ShardsExceedParams {
                shards: 5,
                params: 4
            }
        );
        assert!(deploy(&model, &ClusterSpec::new(2, 4)).is_ok());
    }

    /// `deploy` reserves exactly the ops it adds: every zoo model, training
    /// and inference, at 1 × 1, 8 × 2 and 256 × 8, and vgg_16 under the
    /// `comm:` block of `examples/scenarios/autotune.yml` (partition and
    /// fusion passes).
    #[test]
    fn capacity_hint_is_the_op_count() {
        use tictac_graph::Model;
        let mut cases = Vec::new();
        for model in Model::ALL {
            for mode in [Mode::Training, Mode::Inference] {
                let graph = model.build(mode);
                for (w, s) in [(1, 1), (8, 2), (256, 8)] {
                    cases.push((graph.clone(), ClusterSpec::new(w, s)));
                }
            }
        }
        let comm = CommConfig::default()
            .with_partition_bytes(Some(4 << 20))
            .with_fusion_bytes(Some(64 << 10));
        cases.push((
            Model::Vgg16.build(Mode::Training),
            ClusterSpec::new(4, 2).with_comm(comm),
        ));
        for (model, spec) in &cases {
            let planned = Lowering::new(model, spec)
                .unwrap()
                .op_count(model, spec.workers);
            let built = deploy(model, spec).unwrap().graph().len();
            let shape = (spec.workers, spec.parameter_servers);
            assert_eq!(planned, built, "{} at {shape:?}", model.name());
        }
    }

    #[test]
    fn validates_thousand_worker_shapes() {
        // The scale sweep's largest shape must pass spec validation.
        let spec = ClusterSpec::try_new(1024, 16).unwrap();
        assert_eq!(spec.workers, 1024);
        assert_eq!(spec.parameter_servers, 16);
    }

    #[test]
    fn builder_with_unit_factors_equals_uniform_spec() {
        let built = ClusterSpec::builder()
            .workers(4)
            .parameter_servers(2)
            .worker_speeds(vec![1.0; 4])
            .ps_speeds(vec![1.0; 2])
            .link_bandwidths(vec![1.0; 4])
            .build()
            .unwrap();
        let plain = ClusterSpec::new(4, 2);
        assert_eq!(built, plain);
        assert!(built.is_uniform());
        use std::hash::{Hash, Hasher};
        let h = |s: &ClusterSpec| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&built), h(&plain));
    }

    #[test]
    fn builder_rejects_bad_factors() {
        let base = || ClusterSpec::builder().workers(2).parameter_servers(1);
        assert_eq!(
            base().worker_speeds(vec![1.0]).build().unwrap_err(),
            ClusterSpecError::FactorLength {
                field: "worker_speeds",
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            base().ps_speeds(vec![0.0]).build().unwrap_err(),
            ClusterSpecError::NonPositiveFactor {
                field: "ps_speeds",
                value: 0.0
            }
        );
        // NaN, and factors whose reciprocal (`1e-320`) or whose fair-share
        // stretch `2.0 / f` (`1e-308`, a normal float) is infinite.
        for bad in [f64::NAN, f64::INFINITY, 1e-308, 1e-320, 1e300] {
            assert!(matches!(
                base().link_bandwidths(vec![bad, 1.0]).build(),
                Err(ClusterSpecError::NonPositiveFactor { .. })
            ));
            assert!(matches!(
                base().worker_speeds(vec![1.0, bad]).build(),
                Err(ClusterSpecError::NonPositiveFactor { .. })
            ));
        }
        for ok in [1e-280, 1e-30, 1e280] {
            assert!(base().link_bandwidths(vec![ok, 1.0]).build().is_ok());
        }
        assert_eq!(
            ClusterSpec::builder().parameter_servers(1).build(),
            Err(ClusterSpecError::ZeroWorkers)
        );
    }

    #[test]
    fn heterogeneous_spec_lowers_into_graph_side_tables() {
        let spec = ClusterSpec::builder()
            .workers(2)
            .parameter_servers(2)
            .worker_speeds(vec![1.0, 0.5])
            .ps_speeds(vec![2.0, 1.0])
            .link_bandwidths(vec![1.0, 0.25]) // per-worker uplinks
            .build()
            .unwrap();
        let model = tiny_mlp(Mode::Training, 8);
        let d = deploy(&model, &spec).unwrap();
        let g = d.graph();
        assert_eq!(g.device_speed(d.workers()[0]), 1.0);
        assert_eq!(g.device_speed(d.workers()[1]), 0.5);
        assert_eq!(g.device_speed(d.parameter_servers()[0]), 2.0);
        // Worker 1's channels to both shards inherit its uplink factor.
        assert_eq!(g.channel_bandwidth(channel(&d, 1, 0)), 0.25);
        assert_eq!(g.channel_bandwidth(channel(&d, 1, 1)), 0.25);
        assert_eq!(g.channel_bandwidth(channel(&d, 0, 0)), 1.0);

        // Full-matrix form targets a single link.
        let spec = ClusterSpec::builder()
            .workers(2)
            .parameter_servers(2)
            .link_bandwidths(vec![1.0, 1.0, 1.0, 4.0])
            .build()
            .unwrap();
        let d = deploy(&model, &spec).unwrap();
        assert_eq!(d.graph().channel_bandwidth(channel(&d, 1, 1)), 4.0);
        assert_eq!(d.graph().channel_bandwidth(channel(&d, 1, 0)), 1.0);
    }

    #[test]
    fn uniform_spec_lowers_to_uniform_graph() {
        let d = mlp_cluster(3, 2, Mode::Training);
        let g = d.graph();
        assert!(g
            .devices()
            .iter()
            .all(|dev| g.device_speed(dev.id()) == 1.0));
        assert!(g
            .channels()
            .iter()
            .all(|ch| g.channel_bandwidth(ch.id()) == 1.0));
    }

    #[test]
    fn partition_pass_splits_large_params_exactly() {
        let model = tiny_mlp(Mode::Training, 8);
        let total: u64 = model.params().iter().map(|p| p.bytes()).sum();
        let largest = model.params().iter().map(|p| p.bytes()).max().unwrap();
        let spec = ClusterSpec::new(2, 2)
            .with_comm(CommConfig::default().with_partition_bytes(Some(largest / 2)));
        let d = deploy(&model, &spec).unwrap();
        let g = d.graph();
        // More graph params than model params, byte total preserved.
        assert!(g.params().len() > model.params().len());
        assert_eq!(g.params().iter().map(|p| p.bytes()).sum::<u64>(), total);
        // Per-model-parameter byte totals preserved exactly.
        let mut per_param = vec![0u64; model.params().len()];
        for (u, p) in g.params().iter().enumerate() {
            let (origin, _) = d.unit_origin(ParamId::from_index(u));
            per_param[origin] += p.bytes();
        }
        for (i, p) in model.params().iter().enumerate() {
            assert_eq!(per_param[i], p.bytes(), "param {i}");
        }
        // Chunk names render with the .part suffix.
        assert!((0..g.params().len()).any(|u| {
            d.unit_origin(ParamId::from_index(u)).1.is_some()
                && g.params()[u].name().contains(".part")
        }));
        assert!(g.check().is_ok());
        assert!(tictac_graph::topo::is_acyclic(g));
    }

    #[test]
    fn fusion_pass_coalesces_small_transfers() {
        let model = tiny_mlp(Mode::Training, 8);
        let spec = ClusterSpec::new(2, 1)
            .with_comm(CommConfig::default().with_fusion_bytes(Some(u64::MAX)));
        let d = deploy(&model, &spec).unwrap();
        let g = d.graph();
        // All four tiny params fuse into one transfer per worker.
        for (w, &worker) in d.workers().iter().enumerate() {
            let recvs = g.recv_ops_on(worker);
            assert_eq!(recvs.len(), 1, "worker {w}");
            let total: u64 = model.params().iter().map(|p| p.bytes()).sum();
            assert_eq!(g.op(recvs[0]).cost().bytes, total);
            // Every unit maps to the shared fused recv.
            for u in 0..g.params().len() {
                assert_eq!(d.recv_op(w, ParamId::from_index(u)), Some(recvs[0]));
            }
        }
        assert!(g.check().is_ok());
        assert!(tictac_graph::topo::is_acyclic(g));
    }

    #[test]
    fn default_comm_is_identity() {
        let model = tiny_mlp(Mode::Training, 8);
        let plain = deploy(&model, &ClusterSpec::new(3, 2)).unwrap();
        let explicit = deploy(
            &model,
            &ClusterSpec::new(3, 2).with_comm(CommConfig::default()),
        )
        .unwrap();
        assert_eq!(plain.graph().len(), explicit.graph().len());
        for id in plain.graph().op_ids() {
            assert_eq!(
                plain.graph().op_name(id),
                explicit.graph().op_name(id),
                "op {id:?}"
            );
        }
        assert_eq!(CommConfig::default().fingerprint(), 0);
    }

    #[test]
    fn comm_fingerprint_separates_configs() {
        let a = CommConfig::default().with_partition_bytes(Some(1 << 20));
        let b = CommConfig::default().with_fusion_bytes(Some(1 << 20));
        let c = CommConfig::default();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), 0);
        assert_eq!(c.fingerprint(), 0);
        assert!(c.is_default());
        assert!(!a.is_default());
    }

    #[test]
    fn rejects_zero_byte_comm_thresholds() {
        let model = tiny_mlp(Mode::Training, 8);
        for comm in [
            CommConfig::default().with_partition_bytes(Some(0)),
            CommConfig::default().with_fusion_bytes(Some(0)),
        ] {
            assert!(matches!(
                deploy(&model, &ClusterSpec::new(2, 1).with_comm(comm)),
                Err(DeployError::InvalidCommConfig { .. })
            ));
        }
    }

    #[test]
    fn chunked_deployment_replicates_schedules() {
        let model = tiny_mlp(Mode::Training, 8);
        let largest = model.params().iter().map(|p| p.bytes()).max().unwrap();
        let spec = ClusterSpec::new(3, 2).with_comm(
            CommConfig::default()
                .with_partition_bytes(Some(largest / 3))
                .with_fusion_bytes(Some(64)),
        );
        let d = deploy(&model, &spec).unwrap();
        let schedule = tictac_sched::tic(d.graph(), d.workers()[0]);
        let replicated = d.replicate_schedule(&schedule);
        for u in 0..d.graph().params().len() {
            let param = ParamId::from_index(u);
            let p0 = replicated.priority(d.recv_op(0, param).unwrap());
            assert!(p0.is_some());
            for w in 1..3 {
                let pw = replicated.priority(d.recv_op(w, param).unwrap());
                assert_eq!(p0, pw, "worker {w} unit {u}");
            }
        }
    }

    #[test]
    fn ops_per_worker_counts_partition_size() {
        let d = mlp_cluster(2, 1, Mode::Training);
        let g = d.graph();
        assert_eq!(d.ops_per_worker(), g.ops_on(d.workers()[0]).count());
        assert!(d.ops_per_worker() > 10);
    }
}
