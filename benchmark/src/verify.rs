//! Output verification: order-insensitive fingerprints of result relations,
//! compared against the interpreted `pytond-frame`/`pytond-ndarray`
//! baselines — frozen in `benchmark/expected/` for seed 42, computed live for
//! any other seed. The engine never produces its own reference.

use crate::json::{parse, Json};
use crate::run::bench_dir;
use crate::workloads::{build, Sizing, Workload, NAMES};
use pytond_common::{Column, Relation, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Relative tolerance for numeric checksums: parallel and serial plans sum
/// floats in different orders, and the baselines in yet another.
const TOL: f64 = 1e-9;

/// Generated row-id columns whose numbering conventions differ between the
/// compiled path (`row_number()`, 1-based) and NumPy (0-based).
const ID_COLS: [&str; 3] = ["__id", "row_id", "col_id"];

#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub rows: usize,
    pub cols: Vec<ColPrint>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColPrint {
    pub name: String,
    pub dtype: String,
    pub nulls: usize,
    pub sum: Checksum,
}

/// Order-insensitive column checksum. Numeric columns (the two paths may
/// disagree on int vs float) carry their sum and absolute sum; everything
/// else a wrapping sum of per-value hashes.
#[derive(Debug, Clone, PartialEq)]
pub enum Checksum {
    Numeric { sum: f64, abs: f64 },
    Exact(u64),
}

/// FNV-1a, spelled out here rather than borrowed from `pytond_common::hash`:
/// the frozen files must not change when the engine's hasher does.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn checksum(col: &Column) -> Checksum {
    if col.dtype().is_numeric() {
        let (mut sum, mut abs) = (0.0, 0.0);
        for v in col.iter_values().filter_map(|v| v.as_f64()) {
            sum += v;
            abs += v.abs();
        }
        return Checksum::Numeric { sum, abs };
    }
    let mut acc = 0u64;
    for v in col.iter_values() {
        acc = acc.wrapping_add(match v {
            Value::Null => 0,
            Value::Str(s) => fnv1a(s.as_bytes()),
            Value::Date(d) => fnv1a(&d.to_le_bytes()),
            Value::Bool(b) => fnv1a(&[u8::from(b)]),
            Value::Int(i) => fnv1a(&i.to_le_bytes()),
            Value::Float(f) => fnv1a(&f.to_le_bytes()),
        });
    }
    Checksum::Exact(acc)
}

/// Fingerprints `rel`; `strip_ids` drops the generated id columns first.
pub fn fingerprint(rel: &Relation, strip_ids: bool) -> Fingerprint {
    Fingerprint {
        rows: rel.num_rows(),
        cols: rel
            .columns()
            .iter()
            .filter(|(n, _)| !(strip_ids && ID_COLS.contains(&n.as_str())))
            .map(|(name, col)| ColPrint {
                name: name.clone(),
                dtype: col.dtype().to_string(),
                nulls: col.null_count(),
                sum: checksum(col),
            })
            .collect(),
    }
}

fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= TOL * scale.max(1.0)
}

impl Fingerprint {
    /// `None` when `actual` matches this reference; otherwise the first
    /// difference. Column names and the int/float distinction are reported
    /// in the fingerprint but not compared: the interpreted path labels and
    /// types some columns differently (as the repo's differential suites
    /// allow); order, row count, null counts and contents are compared.
    pub fn diff(&self, actual: &Fingerprint) -> Option<String> {
        if self.rows != actual.rows {
            return Some(format!("row count {} vs {}", self.rows, actual.rows));
        }
        if self.cols.len() != actual.cols.len() {
            return Some(format!(
                "column count {} vs {}",
                self.cols.len(),
                actual.cols.len()
            ));
        }
        for (e, a) in self.cols.iter().zip(&actual.cols) {
            if e.nulls != a.nulls {
                return Some(format!(
                    "column {}: nulls {} vs {}",
                    e.name, e.nulls, a.nulls
                ));
            }
            let same = match (&e.sum, &a.sum) {
                (Checksum::Exact(x), Checksum::Exact(y)) => x == y && e.dtype == a.dtype,
                (
                    Checksum::Numeric { sum: s1, abs: a1 },
                    Checksum::Numeric { sum: s2, abs: a2 },
                ) => close(*s1, *s2, a1.max(*a2)) && close(*a1, *a2, a1.max(*a2)),
                _ => false,
            };
            if !same {
                return Some(format!(
                    "column {} ({}): {:?} vs {} ({}): {:?}",
                    e.name, e.dtype, e.sum, a.name, a.dtype, a.sum
                ));
            }
        }
        None
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rows", Json::Num(self.rows as f64)),
            (
                "cols",
                Json::Arr(
                    self.cols
                        .iter()
                        .map(|c| {
                            let mut fields = vec![
                                ("name", Json::str(&c.name)),
                                ("dtype", Json::str(&c.dtype)),
                                ("nulls", Json::Num(c.nulls as f64)),
                            ];
                            match &c.sum {
                                // As strings in `{:e}` form, which round-trips
                                // every digit whatever the magnitude.
                                Checksum::Numeric { sum, abs } => {
                                    fields.push(("sum", Json::str(format!("{sum:e}"))));
                                    fields.push(("abs", Json::str(format!("{abs:e}"))));
                                }
                                Checksum::Exact(h) => {
                                    fields.push(("hash", Json::str(format!("{h:016x}"))));
                                }
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Fingerprint> {
        let cols = j
            .get("cols")?
            .as_arr()
            .iter()
            .map(|c| {
                let sum = match c.get("hash") {
                    Some(h) => Checksum::Exact(u64::from_str_radix(h.as_str()?, 16).ok()?),
                    None => Checksum::Numeric {
                        sum: c.get("sum")?.as_str()?.parse().ok()?,
                        abs: c.get("abs")?.as_str()?.parse().ok()?,
                    },
                };
                Some(ColPrint {
                    name: c.get("name")?.as_str()?.to_string(),
                    dtype: c.get("dtype")?.as_str()?.to_string(),
                    nulls: c.get("nulls")?.as_f64()? as usize,
                    sum,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Fingerprint {
            rows: j.get("rows")?.as_f64()? as usize,
            cols,
        })
    }
}

/// The seed whose baseline fingerprints are frozen in `expected/`.
pub const FROZEN_SEED: u64 = 42;

/// One program's reference output and the baseline's own run time.
pub struct Reference {
    pub print: Fingerprint,
    pub baseline_ms: f64,
}

fn expected_path(workload: &str) -> PathBuf {
    bench_dir()
        .join("expected")
        .join(format!("{workload}.seed{FROZEN_SEED}.json"))
}

/// Runs every program's interpreted baseline; `None` where it fails.
pub fn live_references(w: &Workload) -> Vec<Option<Reference>> {
    w.programs
        .iter()
        .map(|p| {
            let t = Instant::now();
            match (p.baseline)(&w.data[p.db]) {
                Ok(rel) => Some(Reference {
                    baseline_ms: t.elapsed().as_secs_f64() * 1e3,
                    print: fingerprint(&rel, p.strip_ids),
                }),
                Err(e) => {
                    eprintln!("baseline of {} failed: {e}", p.name);
                    None
                }
            }
        })
        .collect()
}

/// The frozen references of `expected/<workload>.seed42.json`, if the file
/// is there and was frozen at this workload's scale.
pub fn frozen_references(w: &Workload) -> Option<Vec<Option<Reference>>> {
    let doc = parse(&std::fs::read_to_string(expected_path(w.name)).ok()?).ok()?;
    if doc.get("scale")?.as_str()? != w.scale {
        return None;
    }
    let programs = doc.get("programs")?;
    let reference = |name: &str| {
        let entry = programs.get(name)?;
        Some(Reference {
            print: Fingerprint::from_json(entry)?,
            baseline_ms: entry.get("baseline_ms")?.as_f64()?,
        })
    };
    Some(w.programs.iter().map(|p| reference(&p.name)).collect())
}

/// `freeze`: regenerates `expected/<workload>.seed42.json` from the
/// baselines at the regular sizes.
pub fn freeze() -> std::io::Result<()> {
    for name in NAMES {
        let w = build(name, FROZEN_SEED, &Sizing::REGULAR).expect("known workload");
        let programs = w
            .programs
            .iter()
            .zip(live_references(&w))
            .map(|(p, r)| {
                let r = r.expect("baseline runs at the frozen seed");
                let Json::Obj(mut fields) = r.print.to_json() else {
                    unreachable!("fingerprints render as objects")
                };
                fields.push(("baseline_ms".into(), Json::Num(r.baseline_ms)));
                (p.name.clone(), Json::Obj(fields))
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Num(FROZEN_SEED as f64)),
            ("scale", Json::str(&w.scale)),
            (
                "source",
                Json::str("pytond-frame / pytond-ndarray baselines"),
            ),
            ("programs", Json::Obj(programs)),
        ]);
        let path = expected_path(name);
        std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
        std::fs::write(&path, doc.pretty())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(ids: Vec<i64>, vals: Vec<f64>, tags: &[&str]) -> Relation {
        Relation::new(vec![
            ("__id".into(), Column::from_i64(ids)),
            ("v".into(), Column::from_f64(vals)),
            ("tag".into(), Column::from_strs(tags)),
        ])
        .unwrap()
    }

    #[test]
    fn fingerprint_ignores_row_order_and_float_noise() {
        let a = fingerprint(&rel(vec![1, 2], vec![0.1, 0.2], &["x", "y"]), true);
        let b = fingerprint(&rel(vec![0, 1], vec![0.2, 0.1 + 1e-14], &["y", "x"]), true);
        assert_eq!(a.cols.len(), 2, "__id stripped");
        assert_eq!(a.diff(&b), None);
    }

    #[test]
    fn fingerprint_catches_changed_values_and_rows() {
        let a = fingerprint(&rel(vec![1, 2], vec![0.1, 0.2], &["x", "y"]), false);
        let b = fingerprint(&rel(vec![1, 2], vec![0.1, 0.3], &["x", "y"]), false);
        let c = fingerprint(&rel(vec![1, 2], vec![0.1, 0.2], &["x", "z"]), false);
        let d = fingerprint(&rel(vec![1], vec![0.3], &["x"]), false);
        assert!(a.diff(&b).unwrap().contains("column v"));
        assert!(a.diff(&c).unwrap().contains("column tag"));
        assert!(a.diff(&d).unwrap().contains("row count"));
    }

    #[test]
    fn fingerprint_survives_the_expected_file_format() {
        let a = fingerprint(&rel(vec![1, 2], vec![0.1, -0.25], &["x", "y"]), false);
        let back = Fingerprint::from_json(&crate::json::parse(&a.to_json().pretty()).unwrap());
        assert_eq!(a.diff(&back.unwrap()), None);
    }
}
