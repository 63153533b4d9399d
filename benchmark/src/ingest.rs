//! The ingest phase: a closed-loop writer appends batches while the
//! workload's reads go through `Pytond::run` — beside it on reader threads
//! (`serve_append`) or alternating with it on the one client (the others).

use crate::layers::run_traced;
use crate::run::{default_config, nproc, register, vectorized_config, Tally};
use crate::trace::{Span, Tracer};
use crate::verify::fingerprint;
use crate::workloads::{Data, Ingest, Workload};
use pytond::{Backend, Pytond, RefreshMode};
use pytond_common::Relation;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Appends the phase makes even when the sweeps overran its time.
const MIN_APPENDS: usize = 5;

/// Appends to the view-less twin database behind `sqldb.append_bare_ms`.
const BARE_APPENDS: usize = 20;

#[derive(Default)]
pub struct IngestStats {
    pub append_ms: Vec<f64>,
    /// Read latencies, one vector per entry of [`Ingest::reads`].
    pub read_ms: Vec<Vec<f64>>,
    /// Per traced append: summed `ViewState::refresh_ns` of the views.
    pub refresh_ms: Vec<f64>,
    pub refreshes: u64,
    pub delta_refreshes: u64,
    pub readers: usize,
    pub appended: usize,
}

/// One timed `Pytond::run` (taken apart into spans when traced).
fn read(py: &Pytond, source: &str, backend: &Backend, tr: Option<&mut Tracer>) -> (f64, bool) {
    let t = Instant::now();
    let out = match tr {
        Some(tr) => run_traced(py, source, backend, "read", tr),
        None => py.run(source, backend),
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, black_box(out).is_ok())
}

/// The closed-loop writer.
struct Writer<'a> {
    py: &'a Pytond,
    spec: &'a Ingest,
    stats: IngestStats,
}

impl Writer<'_> {
    fn append(&mut self, batch: &Relation, tr: Option<&mut Tracer>, tally: &mut Tally) {
        let start_ns = tr.as_ref().map(|tr| tr.now_ns());
        let t = Instant::now();
        let out = self.py.append(self.spec.table, batch);
        self.stats.append_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.stats.appended += 1;
        tally.check(out.is_ok(), || format!("append to {}", self.spec.table));
        if let (Some(tr), Some(start_ns)) = (tr, start_ns) {
            let (op, root) = (tr.next_id(), tr.next_id());
            let counts = vec![("rows", batch.num_rows() as f64)];
            let end_ns = tr.close_root(op, root, "append", start_ns, counts);
            self.record_refreshes(op, root, end_ns, tr);
        }
    }

    /// After a traced append: one synthesized `mv.refresh` child per view,
    /// its duration taken from `ViewState::refresh_ns` and laid against the
    /// append's end (the refresh is the synchronous tail of the append).
    fn record_refreshes(&mut self, op: u64, root: u64, mut end_ns: u64, tr: &mut Tracer) {
        let mut total_ns = 0;
        for view in &self.spec.views {
            let Ok(state) = self.py.view(view.name()) else {
                continue;
            };
            let delta = state.mode() == RefreshMode::Delta;
            self.stats.refreshes += 1;
            self.stats.delta_refreshes += u64::from(delta);
            total_ns += state.refresh_ns();
            let start_ns = end_ns.saturating_sub(state.refresh_ns());
            let id = tr.next_id();
            tr.record(Span {
                op,
                id,
                parent: Some(root),
                name: "mv.refresh",
                start_ns,
                end_ns,
                counts: vec![
                    ("rows_propagated", state.rows_propagated() as f64),
                    ("delta", f64::from(u8::from(delta))),
                ],
            });
            end_ns = start_ns;
        }
        if !self.spec.views.is_empty() {
            self.stats.refresh_ms.push(total_ns as f64 / 1e6);
        }
    }
}

/// Appends batches until `deadline` (or until each went in once) while the
/// reads run.
pub fn ingest(
    w: &Workload,
    py: &Pytond,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> IngestStats {
    let spec = &w.ingest;
    let read_source = |i: usize| w.programs[spec.reads[i % spec.reads.len()]].source;
    let mut writer = Writer {
        py,
        spec,
        stats: IngestStats {
            read_ms: vec![Vec::new(); spec.reads.len()],
            ..IngestStats::default()
        },
    };
    let more =
        |writer: &Writer<'_>| Instant::now() < deadline || writer.stats.appended < MIN_APPENDS;

    // Every reader runs on one engine thread, so clients plus engine
    // threads never exceed `nproc`.
    let backend = default_config().backend;

    if !spec.concurrent {
        for (i, batch) in spec.batches.iter().enumerate() {
            if !more(&writer) {
                break;
            }
            writer.append(batch, tracer.as_deref_mut(), tally);
            let (ms, ok) = read(py, read_source(i), &backend, tracer.as_deref_mut());
            writer.stats.read_ms[i % spec.reads.len()].push(ms);
            tally.check(ok, || "read after append".into());
        }
        writer.stats.readers = 1;
        return writer.stats;
    }

    let readers = nproc().saturating_sub(1).max(1);
    let stop = AtomicBool::new(false);
    let origin = tracer.as_ref().map(|tr| tr.origin());
    let reader_results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let (stop, read_source, backend) = (&stop, &read_source, &backend);
                scope.spawn(move || {
                    let mut tr = origin.map(|o| Tracer::new(o, r as u64 + 1));
                    let mut lat = vec![Vec::new(); spec.reads.len()];
                    let mut tally = Tally::default();
                    let mut i = r;
                    while !stop.load(Ordering::SeqCst) {
                        let (ms, ok) = read(py, read_source(i), backend, tr.as_mut());
                        lat[i % spec.reads.len()].push(ms);
                        tally.check(ok, || "read beside appends".into());
                        i += 1;
                    }
                    (lat, tally, tr.map(|tr| tr.spans))
                })
            })
            .collect();
        for batch in &spec.batches {
            if !more(&writer) {
                break;
            }
            writer.append(batch, tracer.as_deref_mut(), tally);
        }
        stop.store(true, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect::<Vec<_>>()
    });
    for (lat, reader_tally, spans) in reader_results {
        for (mine, theirs) in writer.stats.read_ms.iter_mut().zip(lat) {
            mine.extend(theirs);
        }
        tally.absorb(reader_tally);
        if let (Some(tr), Some(spans)) = (tracer.as_deref_mut(), spans) {
            tr.spans.extend(spans);
        }
    }
    writer.stats.readers = readers;
    writer.stats
}

/// End state of the ingest phase: every standing view equals its
/// from-scratch recompute, and the first read program returns on the
/// appended-to database what it returns on a fresh one bulk-loaded with the
/// base table plus every appended batch.
pub fn check_end_state(w: &Workload, py: &Pytond, appended: usize, tally: &mut Tally) {
    let spec = &w.ingest;
    for view in &spec.views {
        let name = view.name();
        let ok = match (py.view(name), py.database().view_oracle(name)) {
            (Ok(state), Ok(oracle)) => fingerprint(&oracle, false)
                .diff(&fingerprint(state.relation(), false))
                .is_none(),
            _ => false,
        };
        tally.check(ok, || format!("view {name} differs from its recompute"));
    }
    let fresh = Pytond::new();
    for (name, rel, unique) in w.data[spec.db].tables() {
        let keys: Vec<&[&str]> = unique.iter().map(Vec::as_slice).collect();
        let mut rel = rel.clone();
        if name == spec.table {
            rel = concat(rel, &spec.batches[..appended]);
        }
        fresh.register_table(name, rel, &keys);
    }
    let p = &w.programs[spec.reads[0]];
    let backend = vectorized_config().backend;
    let ok = match (fresh.run(p.source, &backend), py.run(p.source, &backend)) {
        (Ok(want), Ok(got)) => fingerprint(&want, p.strip_ids)
            .diff(&fingerprint(&got, p.strip_ids))
            .is_none(),
        _ => false,
    };
    tally.check(ok, || {
        format!(
            "{} after {appended} appends differs from a bulk load",
            p.name
        )
    });
}

fn concat(base: Relation, batches: &[Relation]) -> Relation {
    let mut cols = base.columns().to_vec();
    for batch in batches {
        for ((_, col), (_, more)) in cols.iter_mut().zip(batch.columns()) {
            col.append(more).expect("batch schema matches its table");
        }
    }
    Relation::new(cols).expect("appended columns stay rectangular")
}

/// `sqldb.append_bare_ms`: the first batches appended to a twin instance
/// with no standing views.
pub fn bare_appends(data: &Data, spec: &Ingest) -> Vec<f64> {
    let (twin, _, _) = register(data);
    spec.batches
        .iter()
        .take(BARE_APPENDS)
        .filter_map(|batch| {
            let t = Instant::now();
            twin.append(spec.table, batch).ok()?;
            Some(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}
