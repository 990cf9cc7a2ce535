//! Wire-protocol round-trip properties: every frame type — all seven
//! requests, all nine responses, the handshake pair — must encode →
//! frame → decode to an equal value with its tag, and every damaged
//! frame (truncated, oversized, corrupt tag, trailing garbage) must be
//! rejected with a typed error, never a panic or a silently wrong
//! value.

use paq_relational::{ColumnDef, DataType, Schema, Table, Value};
use paq_server::wire7::{
    decode_request_v7, decode_response_v7, encode_request_v7, encode_response_v7,
};
use paq_server::{
    wire, ExecOptions, Fault, FaultKind, Hello, HelloAck, RemoteExecution, Request, Response,
    RouteChoice, ShedClass, StatsReply, WireError, WireReport, WireRouterVerdict, WireTimings,
    CONTROL_TAG, WIRE_V7,
};
use proptest::prelude::*;
use std::time::Duration;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Raw material for one cell; shaped into a typed [`Value`] per column.
type RawCell = ((u64, f64), (bool, String));

fn raw_cell() -> impl Strategy<Value = RawCell> {
    ((any::<u64>(), any::<f64>()), (any::<bool>(), "[a-z ]{0,8}"))
}

fn cell(ty: DataType, ((int, float), (null, text)): RawCell) -> Value {
    if null {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(int as i64),
        DataType::Float => Value::Float(float),
        DataType::Bool => Value::Bool(int & 1 == 1),
        DataType::Str => Value::Str(text),
    }
}

fn data_type(tag: u64) -> DataType {
    match tag % 4 {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Bool,
        _ => DataType::Str,
    }
}

/// An arbitrary small table: 1–4 typed columns, 0–6 rows.
fn table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec(any::<u64>(), 1..5),
        prop::collection::vec(prop::collection::vec(raw_cell(), 4..5), 0..7),
    )
        .prop_map(|(type_tags, raw_rows)| {
            let types: Vec<DataType> = type_tags.iter().map(|&t| data_type(t)).collect();
            let schema = Schema::new(
                types
                    .iter()
                    .enumerate()
                    .map(|(i, &ty)| ColumnDef::new(format!("c{i}"), ty))
                    .collect(),
            );
            let mut table = Table::new(schema);
            for raw in raw_rows {
                let row: Vec<Value> = types
                    .iter()
                    .zip(raw.iter().cycle())
                    .map(|(&ty, cell_raw)| cell(ty, cell_raw.clone()))
                    .collect();
                table.push_row(row).expect("cells typed per column");
            }
            table
        })
}

fn options() -> impl Strategy<Value = ExecOptions> {
    (
        (0u64..3, any::<bool>(), any::<u64>()),
        (
            (any::<bool>(), any::<u64>()),
            (any::<bool>(), any::<bool>()),
        ),
    )
        .prop_map(
            |((route, has_thresh, thresh), ((has_groups, groups), (has_fb, fb)))| ExecOptions {
                route: match route {
                    0 => RouteChoice::Auto,
                    1 => RouteChoice::ForceDirect,
                    _ => RouteChoice::ForceSketchRefine,
                },
                direct_threshold: has_thresh.then_some(thresh),
                default_groups: has_groups.then_some(groups % 1000),
                threads: (groups % 3 == 0).then_some(groups % 17),
                fallback_to_direct: has_fb.then_some(fb),
                router_enabled: (thresh % 2 == 0).then_some(thresh % 3 == 0),
                deadline_ms: (groups % 2 == 0).then_some(thresh % 100_000),
            },
        )
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        ("[a-zA-Z]{0,10}", "[a-zA-Z (.)*'=0-9]{1,40}", options()).prop_map(
            |(relation, paql, options)| Request::Execute {
                relation,
                paql,
                options,
            }
        ),
        ("[a-zA-Z]{1,10}", table(), (any::<bool>(), any::<u64>())).prop_map(
            |(name, table, (has_token, token))| Request::RegisterTable {
                name,
                table,
                token: has_token.then_some(token),
            }
        ),
        (
            "[a-zA-Z]{1,10}",
            prop::collection::vec(raw_cell().prop_map(|raw| cell(DataType::Float, raw)), 0..5),
            (any::<bool>(), any::<u64>())
        )
            .prop_map(|(name, row, (has_token, token))| Request::AppendRow {
                name,
                row,
                token: has_token.then_some(token),
            }),
        ("[a-zA-Z]{0,10}", "[a-zA-Z (.)*'=0-9]{1,40}", options()).prop_map(
            |(relation, paql, options)| Request::Explain {
                relation,
                paql,
                options,
            }
        ),
        Just(Request::Stats),
        Just(Request::Shutdown),
        Just(Request::Metrics),
    ]
}

fn report() -> impl Strategy<Value = WireReport> {
    (
        ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())),
        ((any::<u64>(), any::<u64>()), (any::<bool>(), any::<u64>())),
    )
        .prop_map(
            |(((calls, backtracks), (waves, solves)), ((requeues, groups), (hybrid, nanos)))| {
                WireReport {
                    solver_calls: calls,
                    backtracks,
                    used_hybrid: hybrid,
                    groups_refined: groups,
                    repartitions: groups % 5,
                    attribute_drops: groups % 3,
                    merges: groups % 7,
                    waves,
                    parallel_solves: solves,
                    conflict_requeues: requeues,
                    sketch_time: Duration::from_nanos(nanos),
                    refine_time: Duration::from_nanos(nanos / 2),
                }
            },
        )
}

fn router_verdict() -> impl Strategy<Value = WireRouterVerdict> {
    prop_oneof![
        Just(WireRouterVerdict::Pinned),
        (any::<f64>(), any::<f64>(), any::<u64>(), any::<u64>()).prop_map(
            |(direct_ms, sketchrefine_ms, direct_samples, sketchrefine_samples)| {
                WireRouterVerdict::Model {
                    // NaN breaks PartialEq round-trip comparison; the
                    // f64 *encoding* is bit-exact regardless (covered
                    // by special_floats_round_trip_bit_exactly).
                    direct_ms: if direct_ms.is_nan() { 0.0 } else { direct_ms },
                    sketchrefine_ms: if sketchrefine_ms.is_nan() {
                        0.0
                    } else {
                        sketchrefine_ms
                    },
                    direct_samples,
                    sketchrefine_samples,
                }
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(direct_samples, sketchrefine_samples)| {
            WireRouterVerdict::Fallback {
                direct_samples,
                sketchrefine_samples,
            }
        }),
    ]
}

fn execution() -> impl Strategy<Value = RemoteExecution> {
    (
        (
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..10),
            "[a-zA-Z]{1,10}",
            (any::<u64>(), any::<u64>()),
        ),
        (
            (any::<bool>(), any::<bool>(), "[ -~]{0,60}"),
            ((any::<bool>(), report()), any::<u64>()),
            router_verdict(),
        ),
    )
        .prop_map(
            |(
                (pairs, relation, (rows, table_version)),
                ((direct, fell_back, explain), ((has_report, report), nanos), router),
            )| RemoteExecution {
                pairs,
                relation,
                rows,
                table_version,
                direct,
                router,
                fell_back_to_direct: fell_back,
                explain,
                report: has_report.then_some(report),
                timings: WireTimings {
                    plan: Duration::from_nanos(nanos),
                    partitioning: Duration::from_nanos(nanos / 3),
                    evaluate: Duration::from_nanos(nanos / 5),
                    total: Duration::from_nanos(nanos.saturating_mul(2)),
                },
            },
        )
}

fn fault() -> impl Strategy<Value = Fault> {
    (0u64..11, "[ -~]{0,40}").prop_map(|(kind, message)| Fault {
        kind: match kind {
            0 => FaultKind::BadRequest,
            1 => FaultKind::UnknownTable,
            2 => FaultKind::SchemaMismatch,
            3 => FaultKind::InvalidPartitioning,
            4 => FaultKind::Language,
            5 => FaultKind::Infeasible,
            6 => FaultKind::PossiblyFalseInfeasible,
            7 => FaultKind::Engine,
            8 => FaultKind::Relational,
            9 => FaultKind::Storage,
            _ => FaultKind::Timeout,
        },
        message,
    })
}

fn durability() -> impl Strategy<Value = paq_db::DurabilityStats> {
    (
        ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())),
        ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())),
    )
        .prop_map(
            |(((records, bytes), (syncs, errors)), ((snaps, lsn), (since, recovered)))| {
                paq_db::DurabilityStats {
                    wal_records: records,
                    wal_bytes: bytes,
                    wal_syncs: syncs,
                    wal_errors: errors,
                    snapshots_written: snaps,
                    last_snapshot_lsn: lsn,
                    records_since_snapshot: since,
                    recovered_tables: recovered,
                    recovered_partitionings: recovered % 7,
                    recovered_telemetry: recovered % 11,
                    recovered_acks: recovered % 19,
                    wal_replayed_records: records % 13,
                    wal_tail_dropped_bytes: bytes % 17,
                }
            },
        )
}

fn stats() -> impl Strategy<Value = StatsReply> {
    (
        prop::collection::vec(("[a-zA-Z]{1,8}", (any::<u64>(), any::<u64>())), 0..5),
        ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())),
        (any::<u64>(), any::<u64>()),
        (any::<bool>(), durability()),
    )
        .prop_map(
            |(tables, ((hits, misses), (invalidations, served)), (model, fallback), (has_d, d))| {
                let durability = has_d.then_some(d);
                StatsReply {
                    tables: tables
                        .into_iter()
                        .map(|(name, (rows, version))| paq_db::TableStats {
                            name,
                            rows: (rows % (u32::MAX as u64)) as usize,
                            version,
                        })
                        .collect(),
                    cache: paq_db::CacheStats {
                        hits,
                        misses,
                        invalidations,
                        entries: (served % 1000) as usize,
                    },
                    router: paq_db::RouterStats {
                        direct_samples: (model % 257) as usize,
                        sketchrefine_samples: (fallback % 129) as usize,
                        model_decisions: model,
                        fallback_decisions: fallback,
                    },
                    served,
                    durability,
                }
            },
        )
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        execution().prop_map(|e| Response::Executed(Box::new(e))),
        any::<u64>().prop_map(|version| Response::Registered { version }),
        any::<u64>().prop_map(|version| Response::Appended { version }),
        "[ -~]{0,80}".prop_map(|text| Response::Explained { text }),
        stats().prop_map(Response::Stats),
        Just(Response::ShuttingDown),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            (any::<bool>(), shed_class())
        )
            .prop_map(
                |(in_flight, max_in_flight, retry_after_ms, (has_class, class))| Response::Busy {
                    in_flight,
                    max_in_flight,
                    retry_after_ms,
                    shed_class: has_class.then_some(class),
                }
            ),
        fault().prop_map(Response::Error),
    ]
}

fn shed_class() -> impl Strategy<Value = ShedClass> {
    prop_oneof![
        Just(ShedClass::Interactive),
        Just(ShedClass::Normal),
        Just(ShedClass::Bulk),
    ]
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_with_their_tag(tag in any::<u64>(), request in request()) {
        let tag = tag as u32;
        // Payload round trip.
        let payload = encode_request_v7(tag, &request);
        prop_assert_eq!(payload[0], WIRE_V7);
        prop_assert_eq!(decode_request_v7(&payload).unwrap(), (tag, request.clone()));
        // Framed round trip over a byte stream.
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &payload).unwrap();
        let mut stream = &buf[..];
        let back = wire::read_frame(&mut stream).unwrap().unwrap();
        prop_assert_eq!(decode_request_v7(&back).unwrap(), (tag, request));
        prop_assert!(wire::read_frame(&mut stream).unwrap().is_none());
    }

    #[test]
    fn responses_round_trip_with_their_tag(tag in any::<u64>(), response in response()) {
        let tag = tag as u32;
        let payload = encode_response_v7(tag, &response);
        prop_assert_eq!(payload[0], WIRE_V7);
        prop_assert_eq!(decode_response_v7(&payload).unwrap(), (tag, response.clone()));
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &payload).unwrap();
        let mut stream = &buf[..];
        let back = wire::read_frame(&mut stream).unwrap().unwrap();
        prop_assert_eq!(decode_response_v7(&back).unwrap(), (tag, response));
    }

    #[test]
    fn columnar_register_table_round_trips(
        tag in any::<u64>(),
        name in "[a-zA-Z]{1,10}",
        table in table(),
        token in (any::<bool>(), any::<u64>()),
    ) {
        // RegisterTable is the one request body with its own table
        // codec (typed columnar chunks with null bitmaps and per-chunk
        // crc32), so it gets its own property on top of the
        // all-variants one above.
        let tag = tag as u32;
        let (has_token, token) = token;
        let request = Request::RegisterTable { name, table, token: has_token.then_some(token) };
        let payload = encode_request_v7(tag, &request);
        prop_assert_eq!(decode_request_v7(&payload).unwrap(), (tag, request));
    }

    #[test]
    fn truncated_frames_are_typed_errors(request in request(), cut in 1usize..10_000) {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &encode_request_v7(5, &request)).unwrap();
        let cut = 1 + cut % (buf.len() - 1); // 1..len: keep ≥1 byte, drop ≥1
        let mut stream = &buf[..cut];
        match wire::read_frame(&mut stream) {
            Err(WireError::Truncated) => {}
            other => return Err(TestCaseError::Fail(
                format!("cut at {cut}/{}: expected Truncated, got {other:?}", buf.len()),
            )),
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors(request in request(), cut in 1usize..10_000) {
        // Every strict prefix must fail: the decoder demands the full
        // body and `finish()` forbids leftovers, so there is no prefix
        // that parses as a smaller valid frame.
        let payload = encode_request_v7(9, &request);
        let cut = 1 + cut % (payload.len() - 1); // 1..len
        match decode_request_v7(&payload[..cut]) {
            Err(_) => {}
            Ok((tag, req)) => return Err(TestCaseError::Fail(
                format!("prefix {cut}/{} decoded as tag {tag} {req:?}", payload.len()),
            )),
        }
    }

    #[test]
    fn corrupt_request_bytes_never_panic(
        request in request(),
        pos in any::<u64>(),
        byte in any::<u64>(),
    ) {
        // Single-byte corruption anywhere in the payload — including the
        // columnar chunks, whose crc32 exists to catch exactly this —
        // either still decodes (the byte was free) or fails typed.
        let mut payload = encode_request_v7(42, &request);
        let pos = (pos as usize) % payload.len();
        payload[pos] = byte as u8;
        let _ = decode_request_v7(&payload);
    }

    #[test]
    fn corrupt_response_bytes_never_panic(
        response in response(),
        pos in any::<u64>(),
        byte in any::<u64>(),
    ) {
        let mut payload = encode_response_v7(42, &response);
        let pos = (pos as usize) % payload.len();
        payload[pos] = byte as u8;
        let _ = decode_response_v7(&payload);
    }

    #[test]
    fn trailing_garbage_rejected(response in response(), extra in 1usize..5) {
        let mut payload = encode_response_v7(3, &response);
        payload.resize(payload.len() + extra, 0u8);
        match decode_response_v7(&payload) {
            Err(WireError::Malformed(_)) => {}
            Ok(_) => return Err(TestCaseError::Fail("decoded with trailing bytes".into())),
            Err(e) => return Err(TestCaseError::Fail(format!("wrong error {e:?}"))),
        }
    }

    #[test]
    fn hello_round_trips(max_version in any::<u64>(), client_id in any::<u64>(), class in shed_class()) {
        let hello = Hello { max_version: max_version as u8, client_id, class };
        prop_assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
    }

    #[test]
    fn hello_ack_round_trips(version in any::<u64>(), window in any::<u64>()) {
        let ack = HelloAck { version: version as u8, window };
        prop_assert_eq!(HelloAck::decode(&ack.encode()).unwrap(), ack);
        // And framed over a byte stream, as the handshake sends it.
        let mut buf = Vec::new();
        ack.write_to(&mut buf).unwrap();
        let mut stream = &buf[..];
        prop_assert_eq!(HelloAck::read_from(&mut stream).unwrap(), Some(ack));
        prop_assert_eq!(HelloAck::read_from(&mut stream).unwrap(), None);
    }
}

// ---------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------

#[test]
fn every_request_variant_round_trips() {
    let mut table = Table::new(Schema::from_pairs(&[
        ("x", DataType::Float),
        ("tag", DataType::Str),
    ]));
    table
        .push_row(vec![Value::Float(1.5), Value::Str("a".into())])
        .unwrap();
    table.push_row(vec![Value::Null, Value::Null]).unwrap();
    let requests = vec![
        Request::Execute {
            relation: "Items".into(),
            paql: "SELECT PACKAGE(R) AS P FROM Items R".into(),
            options: ExecOptions {
                route: RouteChoice::ForceSketchRefine,
                direct_threshold: Some(10),
                default_groups: Some(5),
                threads: Some(4),
                fallback_to_direct: Some(false),
                router_enabled: Some(false),
                deadline_ms: Some(2_500),
            },
        },
        Request::RegisterTable {
            name: "Items".into(),
            table,
            token: Some(0xDEAD_BEEF),
        },
        Request::AppendRow {
            name: "Items".into(),
            row: vec![Value::Float(2.0), Value::Str("b".into())],
            token: None,
        },
        Request::Explain {
            relation: String::new(),
            paql: "SELECT PACKAGE(R) AS P FROM Items R".into(),
            options: ExecOptions::default(),
        },
        Request::Stats,
        Request::Shutdown,
        Request::Metrics,
    ];
    for (tag, request) in requests.into_iter().enumerate() {
        let tag = tag as u32;
        let decoded = decode_request_v7(&encode_request_v7(tag, &request)).unwrap();
        assert_eq!(decoded, (tag, request));
    }
}

#[test]
fn every_response_variant_round_trips() {
    let responses = vec![
        Response::Executed(Box::new(RemoteExecution {
            pairs: vec![(0, 1), (7, 2)],
            relation: "Items".into(),
            rows: 100,
            table_version: 3,
            direct: false,
            router: WireRouterVerdict::Model {
                direct_ms: 18.5,
                sketchrefine_ms: 1.75,
                direct_samples: 4,
                sketchrefine_samples: 9,
            },
            fell_back_to_direct: true,
            explain: "strategy: SKETCHREFINE".into(),
            report: Some(WireReport::default()),
            timings: WireTimings::default(),
        })),
        Response::Registered { version: 9 },
        Response::Appended { version: 10 },
        Response::Explained {
            text: "strategy: DIRECT".into(),
        },
        Response::Stats(StatsReply {
            tables: vec![paq_db::TableStats {
                name: "Items".into(),
                rows: 4,
                version: 2,
            }],
            cache: paq_db::CacheStats::default(),
            router: paq_db::RouterStats::default(),
            served: 17,
            durability: Some(paq_db::DurabilityStats {
                wal_records: 12,
                wal_bytes: 4096,
                wal_syncs: 12,
                snapshots_written: 1,
                last_snapshot_lsn: 9,
                recovered_tables: 2,
                recovered_partitionings: 1,
                recovered_telemetry: 5,
                ..paq_db::DurabilityStats::default()
            }),
        }),
        Response::ShuttingDown,
        Response::Busy {
            in_flight: 64,
            max_in_flight: 64,
            retry_after_ms: 50,
            shed_class: None,
        },
        Response::Busy {
            in_flight: 3,
            max_in_flight: 64,
            retry_after_ms: 50,
            shed_class: Some(ShedClass::Interactive),
        },
        Response::Metrics(paq_obs::RegistrySnapshot::default()),
        Response::Error(Fault {
            kind: FaultKind::UnknownTable,
            message: "unknown table 'X'".into(),
        }),
        Response::Error(Fault {
            kind: FaultKind::Timeout,
            message: "request frame still incomplete after 30s".into(),
        }),
    ];
    for (tag, response) in responses.into_iter().enumerate() {
        let tag = tag as u32;
        let decoded = decode_response_v7(&encode_response_v7(tag, &response)).unwrap();
        assert_eq!(decoded, (tag, response));
    }
}

#[test]
fn special_floats_round_trip_bit_exactly() {
    for bits in [
        f64::NAN.to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        (-0.0f64).to_bits(),
        f64::MIN_POSITIVE.to_bits(),
    ] {
        let request = Request::AppendRow {
            name: "T".into(),
            row: vec![Value::Float(f64::from_bits(bits))],
            token: None,
        };
        let (_, decoded) = decode_request_v7(&encode_request_v7(0, &request)).unwrap();
        match decoded {
            Request::AppendRow { row, .. } => match row[0] {
                Value::Float(f) => assert_eq!(f.to_bits(), bits),
                ref other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        // The same bits through a registered table's Float chunk.
        let mut table = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        table
            .push_row(vec![Value::Float(f64::from_bits(bits))])
            .unwrap();
        table.push_row(vec![Value::Null]).unwrap();
        let request = Request::RegisterTable {
            name: "T".into(),
            table,
            token: None,
        };
        match decode_request_v7(&encode_request_v7(0, &request)).unwrap() {
            (_, Request::RegisterTable { table, .. }) => match table.row(0)[0] {
                Value::Float(f) => assert_eq!(f.to_bits(), bits),
                ref other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn package_reconstruction_matches_pairs() {
    let execution = RemoteExecution {
        pairs: vec![(3, 2), (1, 1)],
        relation: "R".into(),
        rows: 10,
        table_version: 1,
        direct: true,
        router: WireRouterVerdict::Pinned,
        fell_back_to_direct: false,
        explain: String::new(),
        report: None,
        timings: WireTimings::default(),
    };
    let response = Response::Executed(Box::new(execution));
    let package = match decode_response_v7(&encode_response_v7(1, &response)).unwrap() {
        (1, Response::Executed(execution)) => execution.package(),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(package.members(), &[(1, 1), (3, 2)]);
    assert_eq!(package.cardinality(), 3);
}

/// A `Float` column `rows` long whose every `stride`-th slot holds a
/// value and the rest are NULL (`stride == 1` is fully dense).
fn float_column(rows: usize, stride: usize) -> Table {
    let mut table = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
    for i in 0..rows {
        let cell = if i % stride == 0 {
            Value::Float(i as f64 * 0.25)
        } else {
            Value::Null
        };
        table.push_row(vec![cell]).unwrap();
    }
    table
}

fn register(table: Table) -> Vec<u8> {
    encode_request_v7(
        0,
        &Request::RegisterTable {
            name: "T".into(),
            table,
            token: None,
        },
    )
}

#[test]
fn null_heavy_float_column_round_trips_and_ships_only_values() {
    // 10,000 rows, 90% NULL: the chunk carries the null bitmap plus one
    // 8-byte value per non-null slot, nothing for the NULLs.
    let rows = 10_000;
    let sparse = float_column(rows, 10);
    let payload = register(sparse.clone());
    match decode_request_v7(&payload).unwrap() {
        (0, Request::RegisterTable { table, .. }) => assert_eq!(table, sparse),
        other => panic!("unexpected {other:?}"),
    }
    let nulls = rows - rows.div_ceil(10);
    let dense = register(float_column(rows, 1)).len();
    assert_eq!(
        dense - payload.len(),
        8 * nulls,
        "every NULL float saves exactly its 8 value bytes"
    );
}

#[test]
fn columnar_tables_are_smaller_than_the_store_image() {
    // The paper's TPC-H rows are mostly NULL in most columns; Galaxy is
    // dense. The wire encoding must beat the snapshot image of the same
    // table on both.
    for (name, table) in [
        ("tpch", paq_datagen::tpch_table(4096, 7)),
        ("galaxy", paq_datagen::galaxy_table(4096, 7)),
    ] {
        let mut image = Vec::new();
        paq_store::codec::encode_table(&mut image, &table);
        let wire = register(table).len();
        assert!(
            wire < image.len(),
            "{name}: columnar {wire} B >= store image {} B",
            image.len()
        );
    }
}

#[test]
fn v7_busy_with_class_survives_on_the_control_tag() {
    // The shed path answers on the request's own tag, but handshake and
    // framing faults use CONTROL_TAG; both must carry the class intact.
    let busy = Response::Busy {
        in_flight: 32,
        max_in_flight: 32,
        retry_after_ms: 25,
        shed_class: Some(ShedClass::Bulk),
    };
    for tag in [0u32, 7, CONTROL_TAG] {
        let (back_tag, back) = decode_response_v7(&encode_response_v7(tag, &busy)).unwrap();
        assert_eq!(back_tag, tag);
        assert_eq!(back, busy);
    }
}

#[test]
fn v7_wide_packages_with_constant_multiplicity_round_trip() {
    // Regression: a width-0 packed column (every value identical — the
    // all-1 multiplicities of any plain package) occupies zero delta
    // bytes per element, so its element count may legitimately exceed
    // the bytes remaining in the frame. The decoder once rejected such
    // frames as malformed once the package outgrew the trailing
    // payload (~400 members).
    for members in [1usize, 3, 400, 5000] {
        let execution = RemoteExecution {
            pairs: (0..members as u64).map(|row| (row, 1)).collect(),
            relation: "Load".into(),
            rows: members as u64,
            table_version: 1,
            direct: true,
            router: WireRouterVerdict::Pinned,
            fell_back_to_direct: false,
            explain: String::new(),
            report: None,
            timings: WireTimings::default(),
        };
        let response = Response::Executed(Box::new(execution));
        let encoded = encode_response_v7(9, &response);
        let (tag, decoded) = decode_response_v7(&encoded)
            .unwrap_or_else(|e| panic!("{members}-member package rejected: {e}"));
        assert_eq!(tag, 9);
        assert_eq!(decoded, response, "{members}-member package diverged");
    }
}
