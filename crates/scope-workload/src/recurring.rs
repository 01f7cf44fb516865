//! Recurring SCOPE-style workload generation.
//!
//! The paper attributes computation overlap to two mechanisms (Section 2.1):
//! *(i)* users rarely start scripts from scratch — they clone someone else's
//! script and extend it; *(ii)* a producer/consumer model where many
//! consumers apply the same post-processing to the same produced inputs.
//!
//! The generator reproduces exactly those mechanisms. Each cluster owns a
//! pool of input *streams* and a pool of *fragments* — parameterized
//! sub-plan recipes (cook-and-sort, shuffle-aggregate, UDF scoring,
//! sessionizing, join pairs, ...). A recurring *template* picks fragments
//! (Zipf-weighted, so a few fragments are wildly popular) and appends its
//! own template-specific tail before the output. Two templates that picked
//! the same fragment emit byte-identical subgraphs over the same
//! per-instance input GUIDs — overlap that the CloudViews analyzer has to
//! *discover* through signatures; nothing here labels it.
//!
//! Every recurring instance rebinds the input GUIDs and the date parameters,
//! so precise signatures change across instances while normalized signatures
//! stay fixed — the Section 3 situation.

use rand::Rng;
use scope_common::hash::sip64;
use scope_common::ids::{BusinessUnitId, ClusterId, DatasetId, JobId, TemplateId, UserId, VcId};
use scope_common::{Result, ScopeError};
use scope_engine::data::{ColumnVector, Interner, Table};
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{
    AggExpr, DataType, Expr, NamedExpr, Partitioning, PhysicalProps, PlanBuilder, ScalarFunc,
    Schema, SortKey, SortOrder, Udo, UdoKind, Value,
};

use crate::dists::{coin, rng_for, LogNormal, Zipf};

/// Specification of one physical cluster's workload.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Display name (e.g. `"cluster1"`).
    pub name: String,
    /// Number of virtual clusters (tenants).
    pub num_vcs: usize,
    /// Number of user entities submitting jobs.
    pub num_users: usize,
    /// Number of recurring job templates.
    pub num_templates: usize,
    /// Number of distinct input streams.
    pub num_streams: usize,
    /// Number of shared fragments in the cluster's "script folklore".
    pub num_fragments: usize,
    /// Zipf exponent for fragment popularity (higher ⇒ more skew).
    pub fragment_zipf: f64,
    /// Fraction of VCs with no overlap at all (Figure 2a shows some).
    pub vc_zero_overlap: f64,
    /// Fraction of VCs where every job overlaps (Figure 2a shows a few).
    pub vc_full_overlap: f64,
    /// Baseline overlap propensity for the remaining VCs, scaled by a
    /// per-VC uniform draw.
    pub base_overlap: f64,
    /// Number of business units the VCs are grouped into.
    pub num_business_units: usize,
}

impl ClusterSpec {
    /// A small cluster suitable for unit tests.
    pub fn tiny(name: &str) -> ClusterSpec {
        ClusterSpec {
            name: name.into(),
            num_vcs: 4,
            num_users: 6,
            num_templates: 12,
            num_streams: 6,
            num_fragments: 8,
            fragment_zipf: 1.1,
            vc_zero_overlap: 0.25,
            vc_full_overlap: 0.0,
            base_overlap: 0.7,
            num_business_units: 2,
        }
    }
}

/// A business unit: a set of VCs composing one data pipeline.
#[derive(Clone, Debug)]
pub struct BusinessUnitSpec {
    /// Id.
    pub id: BusinessUnitId,
    /// Member VCs.
    pub vcs: Vec<VcId>,
}

/// Top-level generator configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Clusters to generate.
    pub clusters: Vec<ClusterSpec>,
    /// Master seed.
    pub seed: u64,
    /// Distribution of stream row counts.
    pub stream_rows: LogNormal,
}

impl WorkloadConfig {
    /// The five-cluster production setting of Figure 1: all clusters above
    /// 45% job overlap except `cluster3`.
    pub fn paper_five_clusters(seed: u64) -> WorkloadConfig {
        let mk = |name: &str, base_overlap: f64, zero: f64, full: f64| ClusterSpec {
            name: name.into(),
            num_vcs: 40,
            num_users: 60,
            num_templates: 220,
            num_streams: 40,
            num_fragments: 60,
            fragment_zipf: 1.15,
            vc_zero_overlap: zero,
            vc_full_overlap: full,
            base_overlap,
            num_business_units: 5,
        };
        WorkloadConfig {
            clusters: vec![
                mk("cluster1", 0.80, 0.05, 0.05),
                mk("cluster2", 0.72, 0.08, 0.04),
                mk("cluster3", 0.35, 0.25, 0.00), // the paper's low outlier
                mk("cluster4", 0.78, 0.05, 0.06),
                mk("cluster5", 0.68, 0.10, 0.03),
            ],
            seed,
            stream_rows: LogNormal::new(7.6, 1.0, 200.0, 40_000.0),
        }
    }

    /// One large cluster with many VCs (Figure 2's setting).
    pub fn paper_large_cluster(seed: u64, num_vcs: usize) -> WorkloadConfig {
        WorkloadConfig {
            clusters: vec![ClusterSpec {
                name: "large".into(),
                num_vcs,
                num_users: num_vcs * 2,
                num_templates: num_vcs * 6,
                num_streams: num_vcs,
                num_fragments: num_vcs * 2,
                fragment_zipf: 1.25,
                vc_zero_overlap: 0.12,
                vc_full_overlap: 0.06,
                base_overlap: 0.75,
                num_business_units: 8,
            }],
            seed,
            stream_rows: LogNormal::new(7.3, 1.1, 100.0, 30_000.0),
        }
    }

    /// One large business unit (Figures 3–5): a producer/consumer pipeline
    /// with heavy fragment sharing.
    pub fn paper_business_unit(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            clusters: vec![ClusterSpec {
                name: "bu".into(),
                num_vcs: 12,
                num_users: 40,
                num_templates: 400,
                num_streams: 30,
                num_fragments: 80,
                fragment_zipf: 1.3,
                vc_zero_overlap: 0.0,
                vc_full_overlap: 0.08,
                base_overlap: 0.85,
                num_business_units: 1,
            }],
            seed,
            stream_rows: LogNormal::new(7.0, 1.2, 100.0, 25_000.0),
        }
    }
}

/// The canonical stream schema every generated input uses.
pub fn stream_schema() -> Schema {
    Schema::from_pairs(&[
        ("user", DataType::Int),
        ("item", DataType::Int),
        ("cat", DataType::Str),
        ("val", DataType::Float),
        ("ts", DataType::Date),
        ("text", DataType::Str),
    ])
}

/// One input stream of a cluster.
#[derive(Clone, Debug)]
struct StreamInfo {
    /// Normalized-name template, with a literal date segment per instance.
    base_name: String,
    /// Rows per instance (stable across instances so runtime statistics are
    /// stable — like production streams whose daily volume is steady).
    rows: u64,
}

/// A fragment: a deterministic sub-plan recipe shared across templates.
#[derive(Clone, Debug)]
pub(crate) struct Fragment {
    stream: usize,
    second_stream: usize,
    kind: FragmentKind,
    /// Fixed fragment parameters — identical wherever the fragment is used.
    threshold: i64,
    seed: u64,
    udo_version: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FragmentKind {
    /// scan → date filter → shuffle on user → sort: "cooking" (root Sort).
    CookSort,
    /// scan → filter → shuffle → group-by aggregate.
    CookAgg,
    /// scan → UDF scoring → filter on score (root Filter over Process).
    ScoreUdf,
    /// scan → tokenize → per-token counts.
    TokenizeCount,
    /// two-stream equi-join → projection.
    JoinPair,
    /// scan → shuffle → user-defined sessionizing reducer.
    SessionReduce,
    /// scan → filter → global top-k.
    TopK,
    /// scan → shuffle → sort → window rank.
    WindowRank,
}

const FRAGMENT_KINDS: [FragmentKind; 8] = [
    FragmentKind::CookSort,
    FragmentKind::CookAgg,
    FragmentKind::ScoreUdf,
    FragmentKind::TokenizeCount,
    FragmentKind::JoinPair,
    FragmentKind::SessionReduce,
    FragmentKind::TopK,
    FragmentKind::WindowRank,
];

/// A recurring job template.
#[derive(Clone, Debug)]
pub struct TemplateInfo {
    /// Template id (unique within the workload).
    pub template: TemplateId,
    /// Owning VC.
    pub vc: VcId,
    /// Owning user.
    pub user: UserId,
    /// Indices of the fragments the template uses (empty ⇒ fully private
    /// job built from a private recipe).
    pub(crate) fragment_ids: Vec<usize>,
    /// Whether each fragment gets a template-specific tail (cloned-and-
    /// extended) or feeds the output directly (pure clone).
    pub(crate) tails: Vec<bool>,
    /// Seed for the template's private parts.
    pub(crate) tail_seed: u64,
    /// How many times the template runs per instance (occasionally 2 — the
    /// paper's "jobs scheduled more frequently than new data arrival").
    pub multiplicity: usize,
}

/// A generated cluster workload.
#[derive(Clone, Debug)]
pub struct ClusterWorkload {
    /// Cluster id.
    pub cluster: ClusterId,
    /// Spec it was generated from.
    pub spec: ClusterSpec,
    /// VC → business unit assignment.
    pub vc_bu: Vec<BusinessUnitId>,
    /// Per-VC overlap propensity actually drawn.
    pub vc_overlap: Vec<f64>,
    streams: Vec<StreamInfo>,
    pub(crate) fragments: Vec<Fragment>,
    /// The recurring templates.
    pub templates: Vec<TemplateInfo>,
}

/// The generated multi-cluster workload.
#[derive(Clone, Debug)]
pub struct RecurringWorkload {
    /// Generator configuration.
    pub config: WorkloadConfig,
    /// Per-cluster generated state.
    pub clusters: Vec<ClusterWorkload>,
}

impl RecurringWorkload {
    /// Generates the workload deterministically from the config.
    pub fn generate(config: WorkloadConfig) -> Result<RecurringWorkload> {
        if config.clusters.is_empty() {
            return Err(ScopeError::Workload("no clusters configured".into()));
        }
        let mut clusters = Vec::with_capacity(config.clusters.len());
        for (ci, spec) in config.clusters.iter().enumerate() {
            clusters.push(generate_cluster(ci, spec, &config)?);
        }
        Ok(RecurringWorkload { config, clusters })
    }

    /// Registers the input datasets of `instance` for one cluster into the
    /// storage manager. `row_scale` scales all stream sizes (≤1 shrinks the
    /// data for fast experiments).
    pub fn register_instance_data(
        &self,
        cluster_idx: usize,
        instance: u64,
        storage: &StorageManager,
        row_scale: f64,
    ) -> Result<()> {
        let cw = self
            .clusters
            .get(cluster_idx)
            .ok_or_else(|| ScopeError::Workload(format!("no cluster {cluster_idx}")))?;
        for (si, stream) in cw.streams.iter().enumerate() {
            let id = dataset_guid(cw.cluster, si, instance);
            let rows = ((stream.rows as f64 * row_scale).round() as u64).max(1);
            storage.put_dataset(id, generate_stream_table(cw.cluster, si, instance, rows));
        }
        Ok(())
    }

    /// Builds the job specs of one recurring instance of one cluster.
    ///
    /// Job ids are `instance * 1_000_000 + k` so ids never collide across
    /// instances; jobs are emitted in template order (the arrival order the
    /// coordination experiments permute).
    pub fn jobs_for_instance(&self, cluster_idx: usize, instance: u64) -> Result<Vec<JobSpec>> {
        let cw = self
            .clusters
            .get(cluster_idx)
            .ok_or_else(|| ScopeError::Workload(format!("no cluster {cluster_idx}")))?;
        let mut jobs = Vec::new();
        for t in &cw.templates {
            for copy in 0..t.multiplicity {
                let graph = build_template_graph(cw, t, instance, copy)?;
                jobs.push(JobSpec {
                    id: JobId::new(instance * 1_000_000 + jobs.len() as u64),
                    cluster: cw.cluster,
                    vc: t.vc,
                    user: t.user,
                    template: t.template,
                    instance,
                    graph,
                });
            }
        }
        Ok(jobs)
    }

    /// Starts a [`RoundDriver`] over one cluster — the multi-round
    /// recurring driver for incremental-analysis experiments.
    pub fn rounds(&self, cluster_idx: usize) -> RoundDriver<'_> {
        RoundDriver {
            workload: self,
            cluster_idx,
            next_instance: 0,
        }
    }
}

/// Drives a cluster's recurring instances round by round: each
/// [`RoundDriver::next_round`] registers the next instance's input data and
/// returns its job specs, modeling the periodic arrival the incremental
/// analyzer ingests between selection rounds.
pub struct RoundDriver<'a> {
    workload: &'a RecurringWorkload,
    cluster_idx: usize,
    next_instance: u64,
}

impl RoundDriver<'_> {
    /// The instance the next round will run.
    pub fn next_instance(&self) -> u64 {
        self.next_instance
    }

    /// Registers the next instance's datasets into `storage` and returns
    /// its job specs, advancing the cursor.
    pub fn next_round(&mut self, storage: &StorageManager, row_scale: f64) -> Result<Vec<JobSpec>> {
        let instance = self.next_instance;
        self.workload
            .register_instance_data(self.cluster_idx, instance, storage, row_scale)?;
        let jobs = self
            .workload
            .jobs_for_instance(self.cluster_idx, instance)?;
        self.next_instance += 1;
        Ok(jobs)
    }
}

fn generate_cluster(
    ci: usize,
    spec: &ClusterSpec,
    config: &WorkloadConfig,
) -> Result<ClusterWorkload> {
    if spec.num_vcs == 0 || spec.num_templates == 0 || spec.num_streams == 0 {
        return Err(ScopeError::Workload(format!(
            "cluster {} needs vcs, templates, and streams",
            spec.name
        )));
    }
    let cluster = ClusterId::new(ci as u64);
    let mut rng = rng_for(config.seed, &format!("cluster/{}", spec.name));

    // Business-unit assignment: contiguous blocks of VCs.
    let bus = spec.num_business_units.max(1);
    let vc_bu: Vec<BusinessUnitId> = (0..spec.num_vcs)
        .map(|v| BusinessUnitId::new((v * bus / spec.num_vcs) as u64))
        .collect();

    // Per-VC overlap propensity (Figure 2a heterogeneity).
    let vc_overlap: Vec<f64> = (0..spec.num_vcs)
        .map(|_| {
            if coin(&mut rng, spec.vc_zero_overlap) {
                0.0
            } else if coin(&mut rng, spec.vc_full_overlap) {
                1.0
            } else {
                (spec.base_overlap * rng.gen_range(0.4..1.3)).clamp(0.05, 1.0)
            }
        })
        .collect();

    // Streams: sizes from the configured distribution; producer BU round-
    // robin.
    let mut srng = rng_for(config.seed, &format!("streams/{}", spec.name));
    let streams: Vec<StreamInfo> = (0..spec.num_streams)
        .map(|si| StreamInfo {
            base_name: format!("{}/stream{si}", spec.name),
            rows: config.stream_rows.sample(&mut srng).round() as u64,
        })
        .collect();

    // Fragments: Zipf over streams so hot inputs are consumed by many
    // fragments (Figure 3b per-input overlap).
    let stream_pick = Zipf::new(spec.num_streams, 1.05);
    let mut streams = streams;
    let mut frng = rng_for(config.seed, &format!("fragments/{}", spec.name));
    let fragments: Vec<Fragment> = (0..spec.num_fragments)
        .map(|fi| {
            let kind = FRAGMENT_KINDS[fi % FRAGMENT_KINDS.len()];
            Fragment {
                stream: stream_pick.sample(&mut frng),
                second_stream: stream_pick.sample(&mut frng),
                kind,
                threshold: frng.gen_range(1..100),
                seed: frng.gen(),
                udo_version: format!("1.{}.0", frng.gen_range(0..4)),
            }
        })
        .collect();

    // Templates: owner user Zipf (heavy users), fragments Zipf (popular
    // folklore), overlap propensity decides shared vs private fragments.
    let user_pick = Zipf::new(spec.num_users.max(1), 1.1);
    let frag_pick = Zipf::new(spec.num_fragments, spec.fragment_zipf);
    let mut trng = rng_for(config.seed, &format!("templates/{}", spec.name));
    let mut templates = Vec::with_capacity(spec.num_templates);
    let mut fragments = fragments;
    for ti in 0..spec.num_templates {
        let vc = VcId::new((ti % spec.num_vcs) as u64);
        let user = UserId::new(user_pick.sample(&mut trng) as u64);
        let propensity = vc_overlap[vc.index()];
        let shared = coin(&mut trng, propensity);
        let n_frags = if shared {
            // 1..=4 usually; occasionally many (jobs with 10s of overlaps).
            if coin(&mut trng, 0.1) {
                trng.gen_range(5..=8)
            } else {
                trng.gen_range(1..=4)
            }
        } else {
            1
        };
        let fragment_ids: Vec<usize> = if shared {
            (0..n_frags).map(|_| frag_pick.sample(&mut trng)).collect()
        } else {
            // Fully private job: a template-specific fragment over a
            // template-specific stream — no shared scans, no shared
            // computation (the paper's non-overlapping jobs read their own
            // inputs).
            let kind = FRAGMENT_KINDS[trng.gen_range(0..FRAGMENT_KINDS.len())];
            let private_stream = streams.len();
            streams.push(StreamInfo {
                base_name: format!("{}/private/t{ti}", spec.name),
                rows: config.stream_rows.sample(&mut trng).round() as u64,
            });
            let private = Fragment {
                stream: private_stream,
                second_stream: private_stream,
                kind,
                threshold: trng.gen_range(1..100),
                seed: trng.gen(),
                udo_version: "9.9.9".into(),
            };
            fragments.push(private);
            vec![fragments.len() - 1]
        };
        let tails: Vec<bool> = fragment_ids
            .iter()
            .map(|_| coin(&mut trng, 0.7)) // 30%: pure clone up to the output
            .collect();
        let multiplicity = if propensity > 0.0 && coin(&mut trng, 0.04) {
            2
        } else {
            1
        };
        templates.push(TemplateInfo {
            template: TemplateId::new((ci * 1_000_000 + ti) as u64),
            vc,
            user,
            fragment_ids,
            tails,
            tail_seed: trng.gen(),
            multiplicity,
        });
    }

    Ok(ClusterWorkload {
        cluster,
        spec: spec.clone(),
        vc_bu,
        vc_overlap,
        streams,
        fragments,
        templates,
    })
}

/// Stable per-(cluster, stream, instance) dataset GUID.
fn dataset_guid(cluster: ClusterId, stream: usize, instance: u64) -> DatasetId {
    DatasetId::new(sip64(
        format!("guid/{}/{stream}/{instance}", cluster.raw()).as_bytes(),
    ))
}

/// Date string for a recurring instance, embedded in stream names.
fn instance_date(instance: u64) -> String {
    let month = 1 + (instance / 28) % 12;
    let day = 1 + instance % 28;
    format!("2017-{month:02}-{day:02}")
}

/// Deterministic row synthesis for one stream instance.
fn generate_stream_table(cluster: ClusterId, stream: usize, instance: u64, rows: u64) -> Table {
    let mut rng = rng_for(
        sip64(format!("data/{}/{stream}/{instance}", cluster.raw()).as_bytes()),
        "rows",
    );
    let cats = ["news", "video", "shop", "mail", "search"];
    let words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
    let date = (instance as i32) + 17_000;
    // Batch-first synthesis: fill typed columns directly, no row
    // materialization. Draw order per row is unchanged, so the data is
    // byte-identical to the historical row-wise generator.
    let n = rows as usize;
    let mut users = Vec::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    let mut categories = (Interner::default(), Vec::with_capacity(n));
    let mut amounts = Vec::with_capacity(n);
    let mut texts = (Interner::default(), Vec::with_capacity(n));
    let all_texts = words.map(|a| words.map(|b| format!("{a} {b}")));
    for _ in 0..rows {
        // Draw order matches the historical row-wise generator exactly.
        users.push((rng.gen_range(0.0_f64..1.0).powi(2) * 500.0) as i64); // skewed
        let w1 = rng.gen_range(0..words.len());
        let w2 = rng.gen_range(0..words.len());
        ids.push(rng.gen_range(0..10_000));
        let category = categories.0.code(cats[rng.gen_range(0..cats.len())]);
        categories.1.push(category);
        amounts.push((rng.gen_range(0.0_f64..100.0) * 100.0).round() / 100.0);
        texts.1.push(texts.0.code(&all_texts[w1][w2]));
    }
    let columns = vec![
        ColumnVector::Int {
            data: users,
            nulls: None,
        },
        ColumnVector::Int {
            data: ids,
            nulls: None,
        },
        ColumnVector::Str {
            data: categories.0.strs(categories.1),
            nulls: None,
        },
        ColumnVector::Float {
            data: amounts,
            nulls: None,
        },
        ColumnVector::Date {
            data: vec![date; n],
            nulls: None,
        },
        ColumnVector::Str {
            data: texts.0.strs(texts.1),
            nulls: None,
        },
    ];
    Table::from_columns(stream_schema(), vec![columns], PhysicalProps::single())
        .expect("uniform column lengths")
}

/// Builds one fragment's sub-plan. Identical calls (same fragment, same
/// instance) from different templates produce identical subgraphs — the
/// source of all overlap in this workload.
fn build_fragment(
    b: &mut PlanBuilder,
    cw: &ClusterWorkload,
    f: &Fragment,
    instance: u64,
) -> scope_common::ids::NodeId {
    let date = instance_date(instance);
    let scan_of = |b: &mut PlanBuilder, stream: usize| {
        let info = &cw.streams[stream];
        b.table_scan(
            dataset_guid(cw.cluster, stream, instance),
            format!("{}/{}/data.ss", info.base_name, date),
            stream_schema(),
        )
    };
    let date_param = || Expr::param("@@startDate", Value::Date(instance as i32 + 17_000));

    match f.kind {
        FragmentKind::CookSort => {
            let s = scan_of(b, f.stream);
            let fil = b.filter(
                s,
                Expr::col(4)
                    .ge(date_param())
                    .and(Expr::col(1).ge(Expr::lit(f.threshold * 3))),
            );
            let ex = b.exchange(
                fil,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 8,
                },
            );
            b.sort(ex, SortOrder::asc(&[0, 1]))
        }
        FragmentKind::CookAgg => {
            let s = scan_of(b, f.stream);
            let fil = b.filter(s, Expr::col(3).gt(Expr::lit(f.threshold as f64 * 0.3)));
            let ex = b.exchange(
                fil,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 8,
                },
            );
            let agg = b.aggregate(
                ex,
                vec![0],
                vec![
                    AggExpr::new("events", AggFunc::Count, 1),
                    AggExpr::new("total", AggFunc::Sum, 3),
                ],
            );
            // Cooked outputs ship sorted by key (partition-local).
            b.sort(agg, SortOrder::asc(&[0]))
        }
        FragmentKind::ScoreUdf => {
            let s = scan_of(b, f.stream);
            let p = b.process(
                s,
                Udo::new(
                    UdoKind::ScoreModel {
                        cols: vec![0, 1],
                        seed: f.seed,
                    },
                    "Contoso.ML",
                    f.udo_version.clone(),
                ),
            );
            b.filter(p, Expr::col(6).gt(Expr::lit(0.5)))
        }
        FragmentKind::TokenizeCount => {
            let s = scan_of(b, f.stream);
            let s = b.filter(s, Expr::col(1).ge(Expr::lit(f.threshold * 2)));
            let tok = b.process(
                s,
                Udo::new(
                    UdoKind::Tokenize { col: 5 },
                    "Contoso.Text",
                    f.udo_version.clone(),
                ),
            );
            let ex = b.exchange(
                tok,
                Partitioning::Hash {
                    cols: vec![6],
                    parts: 8,
                },
            );
            let agg = b.aggregate(ex, vec![6], vec![AggExpr::new("n", AggFunc::Count, 0)]);
            b.sort(agg, SortOrder(vec![SortKey::desc(1)]))
        }
        FragmentKind::JoinPair => {
            let l = scan_of(b, f.stream);
            let r = scan_of(b, f.second_stream);
            let lex = b.exchange(
                l,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 8,
                },
            );
            let rex = b.exchange(
                r,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 8,
                },
            );
            let ra = b.aggregate(
                rex,
                vec![0],
                vec![AggExpr::new("visits", AggFunc::Count, 1)],
            );
            let j = b.join(lex, ra, scope_plan::JoinKind::Inner, vec![0], vec![0]);
            b.project(
                j,
                vec![
                    NamedExpr::new("user", Expr::col(0)),
                    NamedExpr::new("val", Expr::col(3)),
                    NamedExpr::new("visits", Expr::col(7)),
                ],
            )
        }
        FragmentKind::SessionReduce => {
            let s = scan_of(b, f.stream);
            let fil = b.filter(s, Expr::col(4).ge(date_param()));
            let fil = b.exchange(
                fil,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 8,
                },
            );
            let fil = b.sort(fil, SortOrder::asc(&[0]));
            b.reduce(
                fil,
                Udo::new(
                    UdoKind::TrimBand {
                        col: 1,
                        gap: f.threshold.min(10),
                    },
                    "Contoso.Sessions",
                    f.udo_version.clone(),
                ),
                vec![0],
            )
        }
        FragmentKind::TopK => {
            let s = scan_of(b, f.stream);
            let fil = b.filter(s, Expr::col(3).gt(Expr::lit(f.threshold as f64 * 0.5)));
            b.top(fil, 100, SortOrder(vec![SortKey::desc(3)]))
        }
        FragmentKind::WindowRank => {
            let s = scan_of(b, f.stream);
            let fil = b.filter(s, Expr::col(3).gt(Expr::lit(f.threshold as f64 * 0.25)));
            let ex = b.exchange(
                fil,
                Partitioning::Hash {
                    cols: vec![2],
                    parts: 8,
                },
            );
            let so = b.sort(ex, SortOrder(vec![SortKey::asc(2), SortKey::desc(3)]));
            b.window(
                so,
                scope_plan::op::WindowFunc::Rank,
                vec![2],
                SortOrder(vec![SortKey::desc(3)]),
            )
        }
    }
}

/// Builds the full job graph of a template instance.
fn build_template_graph(
    cw: &ClusterWorkload,
    t: &TemplateInfo,
    instance: u64,
    copy: usize,
) -> Result<scope_plan::QueryGraph> {
    let mut b = PlanBuilder::new();
    let date = instance_date(instance);
    let mut trng = rng_for(t.tail_seed, "tail");
    for (bi, (&fid, &tail)) in t.fragment_ids.iter().zip(&t.tails).enumerate() {
        let frag_root = build_fragment(&mut b, cw, &cw.fragments[fid], instance);
        let out_root = if tail {
            // Template-specific extension: a private scalar projection.
            let factor: f64 = trng.gen_range(0.5..2.0);
            let proj = b.project(
                frag_root,
                vec![
                    NamedExpr::new("k", Expr::col(0)),
                    NamedExpr::new(
                        "m",
                        Expr::func(
                            ScalarFunc::Greatest,
                            vec![Expr::col(1).mul(Expr::lit(factor)), Expr::lit(0.0)],
                        ),
                    ),
                ],
            );
            if coin(&mut trng, 0.4) {
                b.filter(proj, Expr::col(1).gt(Expr::lit(trng.gen_range(0.0..5.0))))
            } else {
                proj
            }
        } else {
            frag_root
        };
        // The copy index keeps duplicate submissions distinguishable by
        // output name only (contents identical — full-job overlap).
        let out_name = format!(
            "out/{}/t{}b{bi}c{copy}/{date}/part.ss",
            cw.spec.name,
            t.template.raw()
        );
        b.write(out_root, out_name);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_signature::sign_graph;
    use std::collections::HashMap;

    fn tiny_workload() -> RecurringWorkload {
        RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![ClusterSpec::tiny("test")],
            // Arbitrary, but pinned to a value whose tiny fixture draws at
            // least one overlapping VC (seed-sensitive: the generator's
            // zero-overlap coin can otherwise zero out a 12-job cluster).
            seed: 7,
            stream_rows: LogNormal::new(5.0, 0.5, 50.0, 500.0),
        })
        .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = tiny_workload();
        let w2 = tiny_workload();
        let j1 = w1.jobs_for_instance(0, 0).unwrap();
        let j2 = w2.jobs_for_instance(0, 0).unwrap();
        assert_eq!(j1.len(), j2.len());
        for (a, b) in j1.iter().zip(&j2) {
            let sa = sign_graph(&a.graph).unwrap();
            let sb = sign_graph(&b.graph).unwrap();
            assert_eq!(
                sa.of(a.graph.roots()[0]).precise,
                sb.of(b.graph.roots()[0]).precise
            );
        }
    }

    #[test]
    fn all_graphs_validate() {
        let w = tiny_workload();
        for job in w.jobs_for_instance(0, 0).unwrap() {
            job.graph.validate().unwrap();
        }
    }

    #[test]
    fn overlap_exists_within_instance() {
        let w = tiny_workload();
        let jobs = w.jobs_for_instance(0, 0).unwrap();
        // Count precise-signature collisions across different jobs.
        let mut seen: HashMap<scope_common::Sig128, usize> = HashMap::new();
        for job in &jobs {
            let signed = sign_graph(&job.graph).unwrap();
            let mut in_job: Vec<scope_common::Sig128> =
                signed.all().iter().map(|s| s.precise).collect();
            in_job.sort_unstable();
            in_job.dedup();
            for sig in in_job {
                *seen.entry(sig).or_default() += 1;
            }
        }
        let overlapping = seen.values().filter(|&&c| c >= 2).count();
        assert!(
            overlapping > 5,
            "expected cross-job overlap, found {overlapping} shared subgraphs"
        );
    }

    #[test]
    fn instances_match_normalized_not_precise() {
        let w = tiny_workload();
        let day0 = w.jobs_for_instance(0, 0).unwrap();
        let day1 = w.jobs_for_instance(0, 1).unwrap();
        let mut any_checked = false;
        for (a, b) in day0.iter().zip(&day1) {
            assert_eq!(a.template, b.template);
            if a.graph.len() != b.graph.len() {
                continue;
            }
            let sa = sign_graph(&a.graph).unwrap();
            let sb = sign_graph(&b.graph).unwrap();
            for (x, y) in sa.all().iter().zip(sb.all()) {
                assert_eq!(
                    x.normalized, y.normalized,
                    "template drift across instances"
                );
                assert_ne!(x.precise, y.precise, "precise must change with new GUIDs");
            }
            any_checked = true;
        }
        assert!(any_checked);
    }

    #[test]
    fn zero_overlap_vcs_have_private_fragments() {
        let mut spec = ClusterSpec::tiny("t");
        spec.vc_zero_overlap = 1.0; // every VC zero-overlap
        let w = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![spec],
            seed: 7,
            stream_rows: LogNormal::new(5.0, 0.5, 50.0, 500.0),
        })
        .unwrap();
        let jobs = w.jobs_for_instance(0, 0).unwrap();
        // Private fragments have distinct seeds/thresholds: overlapping
        // full subgraphs across jobs should be (almost) absent. We allow
        // scan-level overlap (same stream scanned twice is still real
        // overlap the paper would count).
        let mut seen: HashMap<scope_common::Sig128, usize> = HashMap::new();
        for job in &jobs {
            let signed = sign_graph(&job.graph).unwrap();
            for (node, sigs) in job.graph.nodes().iter().zip(signed.all()) {
                if node.children.is_empty() {
                    continue; // ignore bare scans
                }
                *seen.entry(sigs.precise).or_default() += 1;
            }
        }
        // Multiplicity-2 templates still duplicate themselves; tolerate a
        // tiny count.
        let overlapping = seen.values().filter(|&&c| c >= 2).count();
        // Duplicate-submission templates (multiplicity 2) legitimately
        // duplicate whole jobs, and private thresholds can collide; allow a
        // small residue.
        assert!(overlapping <= 12, "{overlapping} unexpected overlaps");
    }

    #[test]
    fn register_instance_data_populates_storage() {
        let w = tiny_workload();
        let storage = StorageManager::new();
        w.register_instance_data(0, 0, &storage, 0.5).unwrap();
        assert_eq!(storage.num_datasets(), w.clusters[0].streams.len());
        // A job executes end-to-end on the registered data.
        let jobs = w.jobs_for_instance(0, 0).unwrap();
        let out = scope_engine::job::run_job_baseline(
            &jobs[0],
            &storage,
            &scope_engine::cost::CostModel,
            &scope_engine::sim::ClusterConfig::default(),
            scope_common::time::SimTime::ZERO,
        )
        .unwrap();
        assert!(!out.exec.outputs.is_empty());
    }

    #[test]
    fn paper_presets_generate() {
        let five = RecurringWorkload::generate(WorkloadConfig::paper_five_clusters(1)).unwrap();
        assert_eq!(five.clusters.len(), 5);
        let large =
            RecurringWorkload::generate(WorkloadConfig::paper_large_cluster(1, 16)).unwrap();
        assert_eq!(large.clusters[0].spec.num_vcs, 16);
        let bu = RecurringWorkload::generate(WorkloadConfig::paper_business_unit(1)).unwrap();
        assert_eq!(bu.clusters[0].spec.num_business_units, 1);
    }

    #[test]
    fn empty_config_rejected() {
        let err = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![],
            seed: 0,
            stream_rows: LogNormal::new(5.0, 0.5, 50.0, 500.0),
        })
        .unwrap_err();
        assert_eq!(err.kind(), "workload");
    }

    #[test]
    fn instance_dates_roll_over_months() {
        assert_eq!(instance_date(0), "2017-01-01");
        assert_eq!(instance_date(27), "2017-01-28");
        assert_eq!(instance_date(28), "2017-02-01");
        assert_eq!(instance_date(28 * 12), "2017-01-01");
    }
}
