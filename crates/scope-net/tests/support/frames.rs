//! Fixtures: one instance of everything that can ride the wire, exercising
//! every enum variant the codec knows about. `tests/protocol.rs` round-trips
//! and mutates them; the workspace's `tests/codec_golden.rs` pins their
//! bytes.

use std::collections::BTreeMap;

use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::metadata::{LockOutcome, LookupResponse, MetadataStats, PurgeSweep};
use scope_common::hash::Sig128;
use scope_common::ids::{JobId, VcId};
use scope_common::time::{SimDuration, SimTime};
use scope_engine::optimizer::{Annotation, AvailableView, SubsumedView};
use scope_net::proto::{ErrorFrame, ErrorKind, Request, Response};
use scope_plan::expr::{AggExpr, AggFunc, BinOp, ScalarFunc, UnaryOp};
use scope_plan::interval::Interval;
use scope_plan::{
    Column, DataType, Expr, NamedExpr, Partitioning, PhysicalProps, Schema, SortDir, SortKey,
    SortOrder, Value,
};
use scope_signature::{SubsumeDescriptor, SubsumeDetail, SubsumeKind};

pub fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("ts", DataType::Date),
        Column::new("name", DataType::Str),
        Column::new("score", DataType::Float),
        Column::new("ok", DataType::Bool),
    ])
    .expect("fixture schema")
}

fn props() -> PhysicalProps {
    PhysicalProps {
        partitioning: Partitioning::Hash {
            cols: vec![0, 2],
            parts: 64,
        },
        sort: SortOrder(vec![
            SortKey {
                col: 0,
                dir: SortDir::Asc,
            },
            SortKey {
                col: 3,
                dir: SortDir::Desc,
            },
        ]),
    }
}

/// An expression using every node kind, every value tag, and a few ops.
fn gnarly_expr() -> Expr {
    Expr::Func {
        func: ScalarFunc::If,
        args: vec![
            Expr::Binary {
                op: BinOp::And,
                left: Box::new(Expr::Binary {
                    op: BinOp::Ge,
                    left: Box::new(Expr::Col(1)),
                    right: Box::new(Expr::RecurringParam {
                        name: "@start".into(),
                        value: Value::Date(19_723),
                    }),
                }),
                right: Box::new(Expr::Unary {
                    op: UnaryOp::Not,
                    child: Box::new(Expr::Unary {
                        op: UnaryOp::IsNull,
                        child: Box::new(Expr::Col(2)),
                    }),
                }),
            },
            Expr::Lit(Value::Str("kept".into())),
            Expr::Func {
                func: ScalarFunc::Concat,
                args: vec![
                    Expr::Lit(Value::Null),
                    Expr::Lit(Value::Bool(true)),
                    Expr::Lit(Value::Int(-42)),
                    Expr::Lit(Value::Float(2.5)),
                ],
            },
        ],
    }
}

fn filter_descriptor() -> SubsumeDescriptor {
    let mut intervals = BTreeMap::new();
    intervals.insert(
        1,
        Interval {
            lo: Some((Value::Date(19_000), true)),
            hi: Some((Value::Date(19_700), false)),
        },
    );
    intervals.insert(
        3,
        Interval {
            lo: None,
            hi: Some((Value::Float(0.75), true)),
        },
    );
    SubsumeDescriptor {
        kind: SubsumeKind::Filter,
        child_precise: Sig128::new(0xDEAD_BEEF, 0xFEED_FACE),
        cols: 0b10111,
        keys: 0b00001,
        schema: schema(),
        detail: SubsumeDetail::Filter { intervals },
    }
}

fn project_descriptor() -> SubsumeDescriptor {
    SubsumeDescriptor {
        kind: SubsumeKind::Project,
        child_precise: Sig128::new(7, 9),
        cols: 0b00111,
        keys: 0,
        schema: schema(),
        detail: SubsumeDetail::Project {
            exprs: vec![
                NamedExpr {
                    name: "key".into(),
                    expr: Expr::Col(0),
                },
                NamedExpr {
                    name: "derived".into(),
                    expr: gnarly_expr(),
                },
            ],
        },
    }
}

fn rollup_descriptor() -> SubsumeDescriptor {
    SubsumeDescriptor {
        kind: SubsumeKind::Rollup,
        child_precise: Sig128::new(u64::MAX, 0),
        cols: u64::MAX,
        keys: 0b11,
        schema: schema(),
        detail: SubsumeDetail::Rollup {
            keys: vec![0, 1],
            aggs: vec![
                AggExpr {
                    name: "n".into(),
                    func: AggFunc::Count,
                    input: 0,
                },
                AggExpr {
                    name: "total".into(),
                    func: AggFunc::Sum,
                    input: 3,
                },
                AggExpr {
                    name: "lo".into(),
                    func: AggFunc::Min,
                    input: 3,
                },
                AggExpr {
                    name: "hi".into(),
                    func: AggFunc::Max,
                    input: 3,
                },
                AggExpr {
                    name: "mean".into(),
                    func: AggFunc::Avg,
                    input: 3,
                },
                AggExpr {
                    name: "uniq".into(),
                    func: AggFunc::CountDistinct,
                    input: 2,
                },
            ],
        },
    }
}

fn available_view() -> AvailableView {
    AvailableView {
        precise: Sig128::new(11, 13),
        rows: 1_000_000,
        bytes: 64 << 20,
        props: props(),
    }
}

fn lookup_response() -> LookupResponse {
    LookupResponse {
        annotations: vec![
            Annotation {
                normalized: Sig128::new(1, 2),
                props: props(),
                ttl: SimDuration::from_micros(3_600_000_000),
                avg_cpu: SimDuration::from_micros(250_000),
                avg_rows: 1234,
                avg_bytes: 1 << 22,
            },
            Annotation {
                normalized: Sig128::new(3, 4),
                props: PhysicalProps {
                    partitioning: Partitioning::Any,
                    sort: SortOrder(Vec::new()),
                },
                ttl: SimDuration::from_micros(0),
                avg_cpu: SimDuration::from_micros(0),
                avg_rows: 0,
                avg_bytes: 0,
            },
        ],
        tier2: vec![SubsumedView {
            view: available_view(),
            normalized: Sig128::new(5, 6),
            descriptor: filter_descriptor(),
            avg_cpu: SimDuration::from_micros(99),
        }],
        latency: SimDuration::from_micros(777),
        hit_count: 3,
    }
}

/// Every request frame, exercising every descriptor variant.
pub fn all_requests() -> Vec<Request> {
    vec![
        Request::Lookup(
            LookupRequest::new(
                JobId::new(42),
                &["wasb://in/clicks.ss".into(), "wasb://in/users.ss".into()],
                SimTime(1_234_567),
            )
            .with_probes(vec![
                filter_descriptor(),
                project_descriptor(),
                rollup_descriptor(),
            ])
            .for_vc(VcId::new(7)),
        ),
        Request::Lookup(LookupRequest::new(JobId::new(0), &[], SimTime::ZERO)),
        Request::Propose(
            ProposeRequest::new(
                Sig128::new(21, 22),
                JobId::new(9),
                SimDuration::from_micros(600_000_000),
                SimTime(55),
            )
            .for_vc(VcId::new(3)),
        ),
        Request::Report(
            ReportRequest::new(
                available_view(),
                Sig128::new(31, 32),
                JobId::new(17),
                SimTime(100),
                SimTime(10_000_000),
            )
            .with_descriptor(Some(rollup_descriptor()))
            .for_vc(VcId::new(5)),
        ),
        Request::Report(ReportRequest::new(
            available_view(),
            Sig128::new(33, 34),
            JobId::new(18),
            SimTime(200),
            SimTime(20_000_000),
        )),
        Request::Purge,
        Request::Stats,
    ]
}

/// Every response frame, including an error frame for every kind.
pub fn all_responses() -> Vec<Response> {
    let mut out = vec![
        Response::Lookup(lookup_response()),
        Response::Lookup(LookupResponse {
            annotations: Vec::new(),
            tier2: Vec::new(),
            latency: SimDuration::from_micros(0),
            hit_count: 0,
        }),
        Response::Propose(LockOutcome::Acquired),
        Response::Propose(LockOutcome::AlreadyLocked),
        Response::Propose(LockOutcome::AlreadyMaterialized),
        Response::Report,
        Response::Purge(PurgeSweep {
            views_purged: 12,
            annotations_purged: 99,
        }),
        Response::Stats(MetadataStats {
            lookups: 1,
            annotations_returned: 2,
            locks_granted: 3,
            lock_conflicts: 4,
            already_materialized: 5,
            views_registered: 6,
            expired_takeovers: 7,
            failed_lookups: 8,
            failed_proposals: 9,
            failed_reports: 10,
            purged_annotations: 11,
            tier2_hits: 12,
            tier2_rejects: 13,
        }),
    ];
    for kind in ALL_ERROR_KINDS {
        out.push(Response::Error(ErrorFrame::new(kind, "detail text")));
    }
    out
}

const ALL_ERROR_KINDS: [ErrorKind; 12] = [
    ErrorKind::InvalidPlan,
    ErrorKind::Expression,
    ErrorKind::Optimizer,
    ErrorKind::Execution,
    ErrorKind::Storage,
    ErrorKind::Metadata,
    ErrorKind::Workload,
    ErrorKind::ServiceUnavailable,
    ErrorKind::ViewUnavailable,
    ErrorKind::Busy,
    ErrorKind::OverQuota,
    ErrorKind::Malformed,
];
