//! Byte-format golden: the sip128 of one encoding per layout that is
//! written to disk or sent over the wire. Each value is built to reach every
//! field and variant of its layout, so any change to an encoded byte moves a
//! digest here.
//!
//! A deliberate layout change updates this table and the `tests/catalog.rs`
//! golden in the same commit, and bumps the wire `VERSION` (DESIGN.md
//! §13.2). A change that only restructures the encoders leaves this file
//! untouched.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cloudviews::analyzer::SelectedView;
use cloudviews::metadata::MetadataService;
use cloudviews::store::{DurableStore, WalEvent};
use cloudviews::CloudViewsBuilder;
use scope_common::hash::{sip128, Sig128};
use scope_common::ids::{ClusterId, JobId, NodeId, TemplateId, UserId, VcId};
use scope_common::intern::Symbol;
use scope_common::time::{SimClock, SimDuration, SimTime};
use scope_engine::data::Table;
use scope_engine::optimizer::Annotation;
use scope_engine::repo::{JobRecord, SubgraphRun};
use scope_engine::storage::{StorageEventSink, StorageManager, ViewFile, ViewMeta};
use scope_plan::{
    Column, DataType, OpKind, Partitioning, PhysicalProps, Schema, SortKey, SortOrder, Value,
};
use scope_signature::SubgraphInfo;
use scope_store::log::LogDir;

#[path = "support/catalog_script.rs"]
mod catalog_script;
use catalog_script::{filter_descriptor, report, run_script, selected};

#[path = "../crates/scope-net/tests/support/frames.rs"]
mod frames;
use frames::{all_requests, all_responses};

/// `name: digest`, one line per pinned encoding.
const GOLDEN: &str = "\
wal LoadAnnotations (two SelectedViews): 25470ac3fc992198a9db0b3c421e19dc
wal LockGranted: 149904a2051721478ed8d4647c4b81e6
wal Register: 4316a7fda78137c9c94a4f27d249c59e
wal PurgeShard: 716939686828fef98c2d24f1686c245b
wal Unregister: 95fecbd5255f0626b62157334e03f607
repo [seq][JobRecord, two SubgraphRuns]: fa91cac6f0841a8a1c5528f79027f8fc
views [0][ViewFile, two partitions]: 891829fa98595d5f6128714301ca86e0
views [1][precise sig]: 44eb8123e524cc128b5e32462e1f7958
MetadataService::export_state: 559f761df9e957e1a31e614593775949
CloudViews snapshot payload: 0694b75da16ddd14c2bbd80bc9067dcb
frame 00 type 0x01: aa4307683cc96a8907900132d41e64f9
frame 01 type 0x01: 58996eeb5ff98b5e412e0a204f441240
frame 02 type 0x02: 562f0e3e266a3f596adc0cf10f492b03
frame 03 type 0x03: 1a601ea397b07526bf38f62fbbafb2a8
frame 04 type 0x03: 53aebd583e14976463b41946d48c023a
frame 05 type 0x04: 082a209de2a5b9e38b6038ec36fd277b
frame 06 type 0x05: d340b80b4992d8ef8dfd5448645b4f19
frame 07 type 0x81: 13ae6e67d09aaefb82202692a602cb2d
frame 08 type 0x81: 16181ac506804f23aa7f26c9e70c71c3
frame 09 type 0x82: dd25d1b1f7195b019a7206c0a07aa16c
frame 10 type 0x82: b759610dcc690b7f219ece88807937ec
frame 11 type 0x82: 6d46e497f8ce698c6c719702003c9506
frame 12 type 0x83: 3f8f893919a602cc7ea749db37ed8102
frame 13 type 0x84: 43a7d14aa202a8fefeb58b93adeecb88
frame 14 type 0x85: 1cc2bb537b1cbd60c3fb20bb71e37769
frame 15 type 0xe0: e7cb67856a5fbb7a370293176d4bde38
frame 16 type 0xe0: e285dbb804481fa1bb9c4c61a6a817fb
frame 17 type 0xe0: 39123571bb5cf82670803d987d688707
frame 18 type 0xe0: cb6da76c2830bcd3885f93e8cb2316b0
frame 19 type 0xe0: 942906c57ec350713b50b7e055519070
frame 20 type 0xe0: 905f1d67721e408a7f7d13c106d826a4
frame 21 type 0xe0: 12fb9eea49345a53e533bb95528fe3b5
frame 22 type 0xe0: 9dbf462825615710f058a2c34fc481c1
frame 23 type 0xe0: ee5a357c0386749f65b829661ddfc8e6
frame 24 type 0xe0: 5364a81abdfba0d5125029edb6fbe066
frame 25 type 0xe0: a0e1732c8a044031682b5fd07f5293f2
frame 26 type 0xe0: 0592570c0b1a9992887058770904f330
";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cv-codec-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The raw record payloads of one log directory, in log order.
fn log_records(dir: &Path) -> Vec<Vec<u8>> {
    LogDir::open(dir).expect("log opens").1.records
}

fn hash_sorted() -> PhysicalProps {
    PhysicalProps {
        partitioning: Partitioning::Hash {
            cols: vec![0, 2],
            parts: 8,
        },
        sort: SortOrder(vec![SortKey::asc(0), SortKey::desc(2)]),
    }
}

fn selected_view() -> SelectedView {
    SelectedView {
        annotation: Annotation {
            normalized: Sig128::new(0x51, 0x52),
            props: hash_sorted(),
            ttl: SimDuration::from_secs(7_200),
            avg_cpu: SimDuration::from_micros(123_456),
            avg_rows: 4_321,
            avg_bytes: 98_765,
        },
        input_tags: vec![Symbol::intern("golden/x.ss"), Symbol::intern("golden/y.ss")],
        utility: SimDuration::from_micros(777_000),
        frequency: 9,
        precise_last_seen: Sig128::new(0x53, 0x54),
    }
}

fn wal_events() -> Vec<(&'static str, WalEvent)> {
    vec![
        (
            "wal LoadAnnotations (two SelectedViews)",
            WalEvent::LoadAnnotations {
                selected: vec![
                    selected_view(),
                    selected(Sig128::new(0xB, 2), "golden/b.ss"),
                ],
                now: SimTime(1_000),
            },
        ),
        (
            "wal LockGranted",
            WalEvent::LockGranted {
                precise: Sig128::new(0xA1, 1),
                holder: JobId::new(42),
                at: SimTime(2_000),
                expires_at: SimTime(62_000),
            },
        ),
        (
            "wal Register",
            WalEvent::Register(Box::new(
                report(
                    Sig128::new(0xA1, 1),
                    Sig128::new(0xA, 1),
                    42,
                    30,
                    9_000,
                    Some(filter_descriptor(3, 0b10)),
                )
                .for_vc(VcId::new(6)),
            )),
        ),
        (
            "wal PurgeShard",
            WalEvent::PurgeShard {
                index: 0,
                now: SimTime(70_000),
            },
        ),
        (
            "wal Unregister",
            WalEvent::Unregister {
                precise: vec![Sig128::new(0xA1, 1), Sig128::new(0xA2, 1)],
                now: SimTime(80_000),
            },
        ),
    ]
}

fn subgraph(root: u64, kind: OpKind, user_code: bool, props: PhysicalProps) -> SubgraphRun {
    SubgraphRun {
        info: SubgraphInfo {
            root: NodeId::new(root),
            precise: Sig128::new(root, 1),
            normalized: Sig128::new(root, 2),
            root_kind: kind,
            num_nodes: root as usize + 3,
            input_tags: vec![Symbol::intern("golden/x.ss")],
            props: Arc::new(props),
            has_user_code: user_code,
        },
        out_rows: 100 * root,
        out_bytes: 4_096 * root,
        exclusive_cpu: SimDuration::from_micros(10 * root),
        cumulative_cpu: SimDuration::from_micros(90 * root),
        finish_offset: SimDuration::from_micros(70 * root),
    }
}

fn job_record() -> JobRecord {
    JobRecord {
        job: JobId::new(7),
        cluster: ClusterId::new(1),
        vc: VcId::new(2),
        user: UserId::new(3),
        template: TemplateId::new(4),
        instance: 5,
        submitted_at: SimTime(1_000),
        latency: SimDuration::from_micros(2_000),
        cpu_time: SimDuration::from_micros(3_000),
        tags: vec![
            Symbol::intern("golden/x.ss"),
            Symbol::intern("golden/out.ss"),
        ],
        subgraphs: vec![
            subgraph(9, OpKind::HashGbAgg, false, PhysicalProps::single()),
            subgraph(11, OpKind::Process, true, hash_sorted()),
        ],
    }
}

/// Two partitions, one column per data type, NULLs in every column.
fn view_file() -> ViewFile {
    let schema = Schema::new(vec![
        Column::new("i", DataType::Int),
        Column::new("f", DataType::Float),
        Column::new("s", DataType::Str),
        Column::new("d", DataType::Date),
        Column::new("b", DataType::Bool),
    ])
    .unwrap();
    let partitions = vec![
        vec![
            vec![
                Value::Int(-3),
                Value::Float(2.5),
                Value::Str("alpha".into()),
                Value::Date(19_723),
                Value::Bool(true),
            ],
            vec![
                Value::Null,
                Value::Float(-0.0),
                Value::Null,
                Value::Date(0),
                Value::Null,
            ],
        ],
        vec![vec![
            Value::Int(i64::MAX),
            Value::Null,
            Value::Str(String::new()),
            Value::Null,
            Value::Bool(false),
        ]],
    ];
    ViewFile {
        table: Arc::new(Table::from_rows(schema, partitions, hash_sorted())),
        props: PhysicalProps::single(),
        meta: ViewMeta {
            precise: Sig128::new(10, 20),
            normalized: Sig128::new(30, 40),
            producer: JobId::new(1),
            created_at: SimTime(5),
            expires_at: SimTime(500),
            rows: 3,
            bytes: 64,
        },
    }
}

/// Every pinned encoding, by name.
fn encodings() -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = wal_events()
        .into_iter()
        .map(|(name, ev)| (name.to_string(), ev.encode()))
        .collect();

    // The two bulk logs, read back raw: `[seq][record]` and `[tag][...]`.
    let dir = scratch("bulk");
    {
        let (store, _) = DurableStore::open(&dir, 1 << 20).expect("store opens");
        store.record_job(12, &job_record());
        store.view_published(&view_file());
        store.view_deleted(Sig128::new(10, 20));
    }
    let [record] = <[Vec<u8>; 1]>::try_from(log_records(&dir.join("repo"))).unwrap();
    out.push(("repo [seq][JobRecord, two SubgraphRuns]".into(), record));
    let [put, delete] = <[Vec<u8>; 2]>::try_from(log_records(&dir.join("views"))).unwrap();
    out.push(("views [0][ViewFile, two partitions]".into(), put));
    out.push(("views [1][precise sig]".into(), delete));
    let _ = std::fs::remove_dir_all(&dir);

    // The catalog after the `tests/catalog.rs` script.
    let clock = Arc::new(SimClock::new());
    let m = MetadataService::new(Arc::clone(&clock), 4);
    run_script(&m, &clock);
    out.push(("MetadataService::export_state".into(), m.export_state()));

    // The runtime's snapshot payload, over the same catalog plus one live
    // view carrying a descriptor.
    let dir = scratch("snapshot");
    {
        let clock = Arc::new(SimClock::new());
        let cv = CloudViewsBuilder::new(Arc::new(StorageManager::new()))
            .clock(Arc::clone(&clock))
            .durable(&dir)
            .build();
        run_script(&cv.metadata, &clock);
        cv.metadata.register(report(
            Sig128::new(0xD1, 4),
            Sig128::new(0xA, 1),
            11,
            3_650,
            9_000,
            Some(filter_descriptor(7, 0b10)),
        ));
        assert!(cv.snapshot_now(), "explicit snapshot must run");
    }
    let snapshot = LogDir::open(&dir.join("meta"))
        .expect("meta log opens")
        .1
        .snapshot
        .expect("a snapshot was sealed");
    out.push(("CloudViews snapshot payload".into(), snapshot));
    let _ = std::fs::remove_dir_all(&dir);

    // Every frame of the wire fixtures, type byte first.
    let frames = all_requests()
        .into_iter()
        .map(|r| r.encode())
        .chain(all_responses().into_iter().map(|r| r.encode()));
    for (i, (ty, payload)) in frames.enumerate() {
        let mut bytes = vec![ty];
        bytes.extend_from_slice(&payload);
        out.push((format!("frame {i:02} type {ty:#04x}"), bytes));
    }
    out
}

#[test]
fn every_layout_encodes_to_its_golden_bytes() {
    let table: String = encodings()
        .iter()
        .map(|(name, bytes)| format!("{name}: {}\n", sip128(bytes)))
        .collect();
    assert_eq!(table, GOLDEN);
}
