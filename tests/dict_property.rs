//! Differential property tests for dictionary-encoded string columns: a
//! database whose string columns are dictionary-encoded at registration
//! (the default) must produce **bit-identical** results — `Value::total_cmp`
//! per cell — to one registered through [`Database::register_plain`], for
//! every query, profile and thread count. Code-space predicate kernels,
//! packed dictionary join keys, fused byte-key probes and zone-map pruning
//! over codes are all implementation detail the result must never betray.
//!
//! The oracle is chosen per table, by registering it plain, so this suite
//! runs in the default process and every dictionary-metric assertion holds
//! unconditionally.
//!
//! Coverage: all 22 TPC-H queries, every hybrid workload, a generated
//! corpus crossing string cardinality (2 … 30 000 distinct) × NULL density ×
//! clustering, at threads 1 / 2 / 7 / hardware, fused and materializing;
//! plus regressions for dictionary-extending appends and failed appends.

use pytond::{Backend, EngineConfig, OptLevel, Profile, Pytond};
use pytond_common::{Column, DType, Relation, Value};
use pytond_sqldb::table::Batch;
use pytond_sqldb::Database;

mod common;
use common::{assert_bit_identical, thread_counts};

/// Small morsels so test-sized inputs span many-morsel grids.
const TEST_MORSEL: usize = 1024;

fn config(profile: Profile, threads: usize) -> EngineConfig {
    EngineConfig {
        profile,
        threads,
        morsel: TEST_MORSEL,
        zone_prune: true,
        ..EngineConfig::default()
    }
}

/// Runs `sql` against the plain-string database (vectorized, serial — the
/// oracle) and against the dictionary-encoded database under both profiles
/// at every thread count, asserting bit-identity throughout.
fn check_sql(name: &str, plain: &Database, encoded: &Database, sql: &str) {
    let reference = plain
        .execute_sql(sql, &config(Profile::Vectorized, 1))
        .unwrap_or_else(|e| panic!("{name}: plain run failed: {e}"));
    for threads in thread_counts() {
        for profile in [Profile::Vectorized, Profile::Fused] {
            let r = encoded
                .execute_sql(sql, &config(profile, threads))
                .unwrap_or_else(|e| panic!("{name}/{profile:?}@{threads}t: run failed: {e}"));
            assert_bit_identical(&format!("{name}/{profile:?}@{threads}t"), &reference, &r);
        }
    }
}

/// Builds a `Pytond` facade from workload tables; with `plain` set, the
/// stored data is re-registered through the plain-string path afterwards
/// (the catalog entry — schema, unique keys, row counts — stays intact, so
/// both facades plan identically).
fn facade(tables: &[(&str, Relation, Vec<Vec<&str>>)], plain: bool) -> Pytond {
    let py = Pytond::new();
    for (name, rel, unique) in tables {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
        if plain {
            py.database().register_plain(name, rel.clone());
        }
    }
    py
}

/// Compiles one source on both facades and cross-checks encoded (both
/// profiles, every thread count) against the plain oracle.
fn check_source(name: &str, plain: &Pytond, encoded: &Pytond, source: &str) {
    let backend = Backend {
        profile: Profile::Fused,
        threads: 1,
        timeout_ms: None,
        mem_budget_mb: None,
    };
    let oracle = plain
        .prepare(source, &backend, OptLevel::O4)
        .unwrap_or_else(|e| panic!("{name}: plain compile failed: {e}"));
    let reference = plain
        .database()
        .execute_prepared(&oracle, &config(Profile::Vectorized, 1))
        .unwrap_or_else(|e| panic!("{name}: plain run failed: {e}"));
    let prepared = encoded
        .prepare(source, &backend, OptLevel::O4)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    for threads in thread_counts() {
        for profile in [Profile::Vectorized, Profile::Fused] {
            let r = encoded
                .database()
                .execute_prepared(&prepared, &config(profile, threads))
                .unwrap_or_else(|e| panic!("{name}/{profile:?}@{threads}t: run failed: {e}"));
            assert_bit_identical(&format!("{name}/{profile:?}@{threads}t"), &reference, &r);
        }
    }
}

#[test]
fn tpch_dict_matches_plain() {
    let data = pytond_tpch::generate(0.002);
    let tables: Vec<(&str, Relation, Vec<Vec<&str>>)> = data
        .tables()
        .into_iter()
        .map(|(name, rel, unique)| (name, rel.clone(), unique))
        .collect();
    let encoded = facade(&tables, false);
    let plain = facade(&tables, true);
    for q in pytond_tpch::all_queries() {
        check_source(q.name, &plain, &encoded, q.source);
    }
}

#[test]
fn hybrid_workloads_dict_matches_plain() {
    for w in pytond_workloads::all_workloads(1) {
        let tables: Vec<(&str, Relation, Vec<Vec<&str>>)> = w
            .tables
            .iter()
            .map(|(name, rel, unique)| (*name, rel.clone(), unique.clone()))
            .collect();
        let encoded = facade(&tables, false);
        let plain = facade(&tables, true);
        check_source(w.name, &plain, &encoded, w.source);
    }
}

// ---------------- generated string corpus ----------------

/// Deterministic string key: `cardinality` distinct values, scattered or
/// clustered, with a NULL every `null_every` rows (0 = no NULLs).
fn str_column(n: usize, cardinality: usize, clustered: bool, null_every: usize) -> Column {
    let mut col = Column::new(DType::Str);
    for i in 0..n {
        if null_every > 0 && i % null_every == 0 {
            col.push_null();
            continue;
        }
        let k = if clustered {
            i * cardinality / n.max(1)
        } else {
            i.wrapping_mul(2_654_435_761) % cardinality
        };
        col.push(Value::Str(format!("key-{k:05}"))).unwrap();
    }
    col
}

fn corpus_pair(
    n: usize,
    cardinality: usize,
    clustered: bool,
    null_every: usize,
) -> (Database, Database) {
    let s = str_column(n, cardinality, clustered, null_every);
    let t = Relation::new(vec![
        ("s".into(), s),
        ("v".into(), Column::from_i64((0..n as i64).collect())),
        (
            "f".into(),
            Column::from_f64((0..n).map(|i| (i as f64) * 0.37 + 0.1).collect()),
        ),
    ])
    .unwrap();
    // A dimension table covering part of the key domain, so joins have both
    // hits and misses (and the probe side sees strings the build never did).
    let dim_keys: Vec<String> = (0..cardinality.max(2) / 2)
        .map(|k| format!("key-{k:05}"))
        .collect();
    let dim = Relation::new(vec![
        (
            "s".into(),
            Column::from_strs(&dim_keys.iter().map(String::as_str).collect::<Vec<_>>()),
        ),
        (
            "w".into(),
            Column::from_i64((0..dim_keys.len() as i64).collect()),
        ),
    ])
    .unwrap();
    let plain = Database::new();
    plain.register_plain("t", t.clone());
    plain.register_plain("dim", dim.clone());
    let encoded = Database::new();
    encoded.register("t", t);
    encoded.register("dim", dim);
    (plain, encoded)
}

#[test]
fn string_corpus_dict_matches_plain() {
    // Cardinality spans degenerate (2), hash-friendly (50), and
    // high-cardinality (30 000 over 30 000 rows ⇒ nearly unique) regimes;
    // NULL density exercises the invalid-row placeholder-code convention.
    for &cardinality in &[2usize, 50, 30_000] {
        for &clustered in &[true, false] {
            for &null_every in &[0usize, 3] {
                let (plain, encoded) = corpus_pair(30_000, cardinality, clustered, null_every);
                let label = format!("card{cardinality}/clustered={clustered}/nulls={null_every}");
                for (tag, sql) in [
                    // Code-space equality / inequality / IN, including a
                    // literal absent from every dictionary.
                    ("eq", "SELECT v FROM t WHERE s = 'key-00001'"),
                    ("eq-miss", "SELECT v FROM t WHERE s = 'no-such-key'"),
                    ("ne", "SELECT COUNT(*) AS n FROM t WHERE s <> 'key-00001'"),
                    (
                        "in",
                        "SELECT v FROM t WHERE s IN ('key-00000', 'key-00002', 'absent')",
                    ),
                    // Order comparisons and LIKE decode per dictionary
                    // entry, never per row — results must not notice.
                    ("range", "SELECT COUNT(*) AS n FROM t WHERE s < 'key-00025'"),
                    (
                        "like",
                        "SELECT COUNT(*) AS n FROM t WHERE s LIKE 'key-000%'",
                    ),
                    // String functions with per-entry tables.
                    (
                        "func",
                        "SELECT UPPER(s) AS u, LENGTH(s) AS l FROM t WHERE v < 100",
                    ),
                    ("concat", "SELECT s || '-x' AS sx FROM t WHERE v < 100"),
                    // Packed-code group keys and DISTINCT.
                    (
                        "groupby",
                        "SELECT s, COUNT(*) AS n, SUM(f) AS sf FROM t GROUP BY s",
                    ),
                    ("distinct", "SELECT DISTINCT s FROM t"),
                    ("nunique", "SELECT COUNT(DISTINCT s) AS d FROM t"),
                    // String-keyed joins: inner/left/semi/anti, fused and
                    // materializing, with hit and miss keys.
                    (
                        "join",
                        "SELECT t.v, dim.w FROM t, dim WHERE t.s = dim.s AND t.v < 20000",
                    ),
                    (
                        "left-join",
                        "SELECT t.v, dim.w FROM t LEFT JOIN dim ON t.s = dim.s",
                    ),
                    ("semi", "SELECT v FROM t WHERE s IN (SELECT s FROM dim)"),
                    (
                        "anti",
                        "SELECT v FROM t WHERE s NOT IN (SELECT s FROM dim WHERE s IS NOT NULL)",
                    ),
                    (
                        "join-agg",
                        "SELECT dim.s, COUNT(*) AS n, SUM(t.f) AS sf \
                         FROM t, dim WHERE t.s = dim.s GROUP BY dim.s",
                    ),
                    // Sort on an encoded column (lexicographic, not code
                    // order) and NULL handling.
                    (
                        "order",
                        "SELECT s, v FROM t WHERE v < 200 ORDER BY s DESC, v",
                    ),
                    ("nulls", "SELECT COUNT(*) AS n FROM t WHERE s IS NULL"),
                ] {
                    check_sql(&format!("{label}/{tag}"), &plain, &encoded, sql);
                }
            }
        }
    }
}

// ---------------- appends extend the dictionary in place ----------------

#[test]
fn append_extends_dictionary() {
    let base = Relation::new(vec![
        ("s".into(), Column::from_strs(&["a", "b", "a", "c"])),
        ("v".into(), Column::from_i64(vec![1, 2, 3, 4])),
    ])
    .unwrap();
    let extra = Relation::new(vec![
        ("s".into(), Column::from_strs(&["b", "d", "a", "e"])),
        ("v".into(), Column::from_i64(vec![5, 6, 7, 8])),
    ])
    .unwrap();
    let encoded = Database::new();
    encoded.register("t", base.clone());
    let plain = Database::new();
    plain.register_plain("t", base);
    encoded.append("t", &extra).unwrap();
    plain.append("t", &extra).unwrap();
    for sql in [
        "SELECT s, v FROM t",
        "SELECT v FROM t WHERE s = 'd'",
        "SELECT v FROM t WHERE s = 'a'",
        "SELECT s, COUNT(*) AS n FROM t GROUP BY s",
    ] {
        check_sql(sql, &plain, &encoded, sql);
    }
    // The appended rows re-encoded against the existing dictionary,
    // extending it in place: one dictionary, first-occurrence order, old
    // codes untouched.
    let stored = encoded.table("t").expect("registered");
    let column = Batch::concat_rows(&stored.chunks).unwrap().cols[0].clone();
    let (codes, dict, _) = column
        .dict_parts()
        .expect("string column stays dictionary-encoded across appends");
    let strs: Vec<&str> = dict.strs().collect();
    assert_eq!(strs, ["a", "b", "c", "d", "e"]);
    assert_eq!(codes, [0u32, 1, 0, 2, 1, 3, 0, 4]);
}

/// The chunks of an appended table hold different versions of one
/// dictionary lineage: a string predicate over them builds one predicate
/// table, and a self-join on the string column packs codes from every chunk
/// without translating any — both ≡ the plain-string oracle.
#[test]
fn appended_chunks_share_one_code_space() {
    let words = |start: usize, rows: usize, vocab: usize| {
        let s: Vec<String> = (start..start + rows)
            .map(|i| format!("w{}", i % vocab))
            .collect();
        let v: Vec<i64> = (start..start + rows).map(|i| i as i64).collect();
        Relation::new(vec![
            ("s".into(), Column::from_str_vec(s)),
            ("v".into(), Column::from_i64(v)),
        ])
        .unwrap()
    };
    let (encoded, plain) = (Database::new(), Database::new());
    encoded.register("t", words(0, 5_000, 40));
    plain.register_plain("t", words(0, 5_000, 40));
    // Each batch brings strings the dictionary has not seen.
    let mut at = 5_000;
    for (rows, vocab) in [(4_000, 60), (3, 70), (6_000, 90)] {
        encoded.append("t", &words(at, rows, vocab)).unwrap();
        plain.append("t", &words(at, rows, vocab)).unwrap();
        at += rows;
    }
    let chunks = &encoded.table("t").unwrap().chunks;
    let len = |c: &pytond_sqldb::table::Chunk| c.batch.cols[0].dict_parts().unwrap().1.len();
    assert!(chunks.len() > 2 && len(&chunks[0]) < len(chunks.last().unwrap()));
    let like = "SELECT v FROM t WHERE s LIKE 'w7%'";
    let (_, trace) = encoded
        .execute_sql_traced(like, &config(Profile::Fused, 2))
        .unwrap();
    assert_eq!(trace.metrics.dict_pred_tables, 1, "{}", trace.summary());
    let join = "SELECT a.v, b.v AS w FROM t AS a, t AS b WHERE a.s = b.s AND b.v < 40";
    let (_, trace) = encoded
        .execute_sql_traced(join, &config(Profile::Fused, 2))
        .unwrap();
    assert_eq!(trace.metrics.dict_probe_pipelines, 1, "{}", trace.summary());
    // Predicated scans gather each chunk's survivors into one column under
    // the newest version; unpredicated ones reach the aggregate whole.
    for sql in [
        like,
        join,
        "SELECT s, COUNT(*) AS n FROM t GROUP BY s",
        "SELECT s, COUNT(*) AS n FROM t WHERE v >= 0 GROUP BY s",
        "SELECT s, v FROM t WHERE v % 3 = 0",
    ] {
        check_sql(sql, &plain, &encoded, sql);
    }
}

/// One already-encoded relation registered as two tables: each table grows
/// a dictionary lineage of its own, so strings the two first see in
/// different appends never share a code. Joins, a semi-join and a
/// code-space comparison across the tables ≡ the plain-string oracle.
#[test]
fn tables_registered_from_one_encoded_relation_grow_apart() {
    let rel = |s: &[&str], v: &[i64]| {
        Relation::new(vec![
            ("s".into(), Column::from_strs(s)),
            ("v".into(), Column::from_i64(v.to_vec())),
        ])
        .unwrap()
    };
    let base = rel(&["a", "b", "a"], &[1, 2, 3]);
    let cols = base.columns().iter();
    let encoded_base = Relation::new(cols.map(|(n, c)| (n.clone(), c.encode_str())).collect());
    let (encoded, plain) = (Database::new(), Database::new());
    for t in ["a", "b"] {
        encoded.register(t, encoded_base.clone().unwrap());
        plain.register_plain(t, base.clone());
    }
    // 'x' takes code 2 in `a` and 'y' code 2 in `b`; then each table takes
    // the other's string, so real matches exist too.
    for (t, s, v) in [("a", "x", 4), ("b", "y", 5), ("b", "x", 6), ("a", "y", 7)] {
        let batch = rel(&[s, "a"], &[v, v + 10]);
        encoded.append(t, &batch).unwrap();
        plain.append(t, &batch).unwrap();
    }
    for sql in [
        "SELECT a.v, b.v AS w FROM a, b WHERE a.s = b.s ORDER BY a.v, w",
        "SELECT v FROM a WHERE s IN (SELECT s FROM b WHERE v > 3) ORDER BY v",
        "SELECT a.v, b.v AS w, CASE WHEN a.s = b.s THEN 1 ELSE 0 END AS same \
         FROM a, b WHERE a.v > 3 AND b.v > 3 ORDER BY a.v, w",
    ] {
        check_sql(sql, &plain, &encoded, sql);
    }
}

#[test]
fn failed_append_publishes_nothing() {
    let base = Relation::new(vec![
        ("s".into(), Column::from_strs(&["a", "b"])),
        ("v".into(), Column::from_i64(vec![1, 2])),
    ])
    .unwrap();
    let db = Database::new();
    db.register("t", base);
    let version = db.stats_version();
    // Second column has the wrong dtype: validation must reject the append
    // before any column (including the already-matching string column)
    // mutates — a failed append publishes nothing.
    let bad = Relation::new(vec![
        ("s".into(), Column::from_strs(&["c"])),
        ("v".into(), Column::from_strs(&["oops"])),
    ])
    .unwrap();
    assert!(db.append("t", &bad).is_err());
    assert_eq!(db.stats_version(), version, "failed append published");
    let stored = db.table("t").expect("registered");
    assert_eq!(stored.num_rows(), 2);
    let column = Batch::concat_rows(&stored.chunks).unwrap().cols[0].clone();
    let (_, dict, _) = column.dict_parts().expect("encoded");
    let strs: Vec<&str> = dict.strs().collect();
    assert_eq!(strs, ["a", "b"], "rejected rows extended the dictionary");
}

// ---------------- metrics and EXPLAIN pin ----------------

/// The acceptance pin: a Q9-style string-keyed join + aggregate runs as one
/// fused pipeline whose probe packs dictionary codes, and the trace says so.
#[test]
fn string_keyed_join_fuses_with_dict_probe() {
    let (_, encoded) = corpus_pair(30_000, 50, false, 0);
    let sql = "SELECT dim.s, COUNT(*) AS n, SUM(t.f) AS sf \
               FROM t, dim WHERE t.s = dim.s AND t.v < 25000 GROUP BY dim.s";
    let (_, trace) = encoded
        .execute_sql_traced(sql, &config(Profile::Fused, 2))
        .unwrap();
    assert!(
        trace.metrics.dict_probe_pipelines >= 1,
        "expected a fused dict-code probe, got metrics {:?}",
        trace.metrics
    );
    assert!(
        trace.plan.contains("dict-key"),
        "EXPLAIN does not label the dict-code probe:\n{}",
        trace.plan
    );
    assert!(
        trace.metrics.dict_encoded_cols >= 1,
        "scan saw no dictionary-encoded columns: {:?}",
        trace.metrics
    );
    assert_eq!(
        trace.metrics.dict_decoded_cols, 1,
        "exactly the output string column decodes at materialization"
    );
}

/// Dictionary decode happens at result materialization and nowhere earlier:
/// a query whose output carries no string column decodes nothing.
#[test]
fn no_string_output_decodes_nothing() {
    let (_, encoded) = corpus_pair(10_000, 50, false, 0);
    let (_, trace) = encoded
        .execute_sql_traced(
            "SELECT COUNT(*) AS n, SUM(f) AS sf FROM t WHERE s <> 'key-00001'",
            &config(Profile::Fused, 2),
        )
        .unwrap();
    assert_eq!(trace.metrics.dict_decoded_cols, 0);
}
