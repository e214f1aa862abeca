//! JIT-style barrier optimizations (paper §6).
//!
//! Three passes, applied to the [`BarrierTable`] (and, for aggregation, to
//! the program body itself):
//!
//! 1. **Immutable-field elision** — accesses to `final` fields never need
//!    isolation barriers.
//! 2. **Intraprocedural static escape analysis** — objects allocated in a
//!    function that provably never escape it are thread-local; barriers on
//!    accesses through such locals are removed. This is the *traditional*
//!    escape analysis, in contrast to the runtime dynamic escape analysis of
//!    paper §4.
//! 3. **Barrier aggregation** (Figure 14) — maximal straight-line runs of
//!    barriered accesses to a single object are rewritten into an
//!    [`Stmt::AggregatedRegion`], which acquires the object's transaction
//!    record once for the whole run.

use crate::ast::*;
use crate::sites::{BarrierKind, BarrierTable};
use crate::types::Checked;
use std::collections::HashSet;

/// Which JIT passes to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct JitOptions {
    /// Elide barriers on `final` fields.
    pub immutable: bool,
    /// Elide barriers on provably non-escaping locals.
    pub escape: bool,
    /// Aggregate consecutive barriers to one object.
    pub aggregate: bool,
}

impl JitOptions {
    /// All passes on (the paper's `+JitOpts` configuration).
    pub fn all() -> Self {
        JitOptions { immutable: true, escape: true, aggregate: true }
    }

    /// Barrier elimination only (paper Figure 15, "Barrier Elim" bar).
    pub fn elim_only() -> Self {
        JitOptions { immutable: true, escape: true, aggregate: false }
    }

    /// No passes.
    pub fn none() -> Self {
        JitOptions { immutable: false, escape: false, aggregate: false }
    }
}

/// What the optimizer did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct JitReport {
    /// Barriers removed because the field is immutable.
    pub immutable_elided: usize,
    /// Barriers removed by intraprocedural escape analysis.
    pub escape_elided: usize,
    /// Barriered sites folded into aggregated regions.
    pub aggregated_sites: usize,
    /// Aggregated regions created.
    pub regions: usize,
}

/// Runs the enabled passes over `checked`, editing `table` (and the program
/// body, for aggregation) in place.
pub fn optimize(checked: &mut Checked, table: &mut BarrierTable, opts: JitOptions) -> JitReport {
    let mut report = JitReport::default();
    if opts.immutable {
        report.immutable_elided = elide_immutable(&checked.program, table);
    }
    if opts.escape {
        report.escape_elided = elide_non_escaping(&checked.program, table);
    }
    if opts.aggregate {
        let (sites, regions) = aggregate(&mut checked.program, table);
        report.aggregated_sites = sites;
        report.regions = regions;
    }
    report
}

/// Pass 1: remove barriers on `final` fields.
fn elide_immutable(program: &Program, table: &mut BarrierTable) -> usize {
    let mut removed = 0;
    for info in crate::sites::classify(program) {
        if info.final_field && table.kind(info.id) != BarrierKind::None {
            table.set(info.id, BarrierKind::None);
            removed += 1;
        }
    }
    removed
}

/// Pass 2: intraprocedural escape analysis.
fn elide_non_escaping(program: &Program, table: &mut BarrierTable) -> usize {
    let mut removed = 0;
    for func in &program.funcs {
        let local_set = non_escaping_locals(func);
        if local_set.is_empty() {
            continue;
        }
        let mut handle = |base: &Expr, site: SiteId, removed: &mut usize| {
            if let Expr::Local(name) = base {
                if local_set.contains(name) && table.kind(site) != BarrierKind::None {
                    table.set(site, BarrierKind::None);
                    *removed += 1;
                }
            }
        };
        let mut pending: Vec<(Expr, SiteId)> = Vec::new();
        walk_stmts(&func.body, &mut |stmt| {
            walk_exprs(stmt, &mut |e| match e {
                Expr::Field { base, site, .. } => pending.push(((**base).clone(), *site)),
                Expr::Index { base, site, .. } => pending.push(((**base).clone(), *site)),
                _ => {}
            });
            if let Stmt::Assign { place, .. } = stmt {
                match place {
                    Place::Field { base, site, .. } => pending.push((base.clone(), *site)),
                    Place::Index { base, site, .. } => pending.push((base.clone(), *site)),
                    _ => {}
                }
            }
        });
        for (base, site) in pending {
            handle(&base, site, &mut removed);
        }
    }
    removed
}

/// Computes the set of locals in `func` proven not to escape.
///
/// A local is a *candidate* if its every assignment is a fresh allocation.
/// Candidates escape if their value is stored to a static, stored into a
/// field/element of anything that is not itself a non-escaping candidate,
/// copied to another local, passed to a call or spawn, returned, or used as
/// a monitor. Containment edges (`base.f = x`) propagate escape from
/// container to containee to a fixpoint.
pub fn non_escaping_locals(func: &FuncDecl) -> HashSet<String> {
    let mut candidates: HashSet<String> = HashSet::new();
    let mut disqualified: HashSet<String> =
        func.params.iter().map(|(n, _)| n.clone()).collect();
    walk_stmts(&func.body, &mut |stmt| {
        let (name, value) = match stmt {
            Stmt::Let { name, init, .. } => (name, init),
            Stmt::Assign { place: Place::Local(name), value } => (name, value),
            _ => return,
        };
        if matches!(value, Expr::New { .. } | Expr::NewArray { .. }) {
            if !disqualified.contains(name) {
                candidates.insert(name.clone());
            }
        } else {
            disqualified.insert(name.clone());
            candidates.remove(name);
        }
    });

    let mut escaped: HashSet<String> = HashSet::new();
    let mut contains: Vec<(String, String)> = Vec::new(); // (container, containee)
    let local_name = |e: &Expr| match e {
        Expr::Local(n) => Some(n.clone()),
        _ => None,
    };
    walk_stmts(&func.body, &mut |stmt| {
        walk_exprs(stmt, &mut |e| {
            if let Expr::Call { args, .. } | Expr::Spawn { args, .. } = e {
                for a in args {
                    if let Some(n) = local_name(a) {
                        escaped.insert(n);
                    }
                }
            }
        });
        match stmt {
            Stmt::Return(Some(e)) => {
                if let Some(n) = local_name(e) {
                    escaped.insert(n);
                }
            }
            Stmt::Lock { obj, .. } => {
                if let Some(n) = local_name(obj) {
                    escaped.insert(n);
                }
            }
            Stmt::Assign { place, value } => match place {
                Place::Static { .. } => {
                    if let Some(n) = local_name(value) {
                        escaped.insert(n);
                    }
                }
                Place::Field { base, .. } | Place::Index { base, .. } => match local_name(base) {
                    Some(b) => {
                        if let Some(v) = local_name(value) {
                            contains.push((b, v));
                        }
                    }
                    None => {
                        if let Some(v) = local_name(value) {
                            escaped.insert(v);
                        }
                    }
                },
                Place::Local(target) => {
                    if let Some(v) = local_name(value) {
                        if v != *target {
                            escaped.insert(v);
                        }
                    }
                }
            },
            Stmt::Let { name, init, .. } => {
                if let Some(v) = local_name(init) {
                    if v != *name {
                        escaped.insert(v);
                    }
                }
            }
            _ => {}
        }
    });

    loop {
        let mut changed = false;
        for (container, containee) in &contains {
            let container_escapes =
                escaped.contains(container) || !candidates.contains(container);
            if container_escapes && escaped.insert(containee.clone()) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    candidates.retain(|c| !escaped.contains(c));
    candidates
}

/// Pass 3: barrier aggregation (paper Figure 14).
///
/// Rewrites maximal straight-line runs of ≥2 barriered field accesses to a
/// single local object, at least one of them a write, into [`Stmt::AggregatedRegion`]s and clears the
/// individual site barriers (the region performs one acquire/release).
/// Mirrors the paper's constraints: one object, no calls, no control flow,
/// never across basic blocks, and never inside `atomic` (transactional code
/// uses its own protocol).
fn aggregate(program: &mut Program, table: &mut BarrierTable) -> (usize, usize) {
    let mut total_sites = 0;
    let mut total_regions = 0;
    for func in &mut program.funcs {
        let (s, r) = aggregate_block(&mut func.body, table, false);
        total_sites += s;
        total_regions += r;
    }
    (total_sites, total_regions)
}

fn aggregate_block(
    body: &mut Vec<Stmt>,
    table: &mut BarrierTable,
    in_atomic: bool,
) -> (usize, usize) {
    let mut sites = 0;
    let mut regions = 0;
    for stmt in body.iter_mut() {
        match stmt {
            Stmt::If { then_body, else_body, .. } => {
                let (s, r) = aggregate_block(then_body, table, in_atomic);
                sites += s;
                regions += r;
                let (s, r) = aggregate_block(else_body, table, in_atomic);
                sites += s;
                regions += r;
            }
            Stmt::While { body, .. } => {
                let (s, r) = aggregate_block(body, table, in_atomic);
                sites += s;
                regions += r;
            }
            Stmt::Atomic { body } => {
                let (s, r) = aggregate_block(body, table, true);
                sites += s;
                regions += r;
            }
            Stmt::Lock { body, .. } => {
                let (s, r) = aggregate_block(body, table, in_atomic);
                sites += s;
                regions += r;
            }
            _ => {}
        }
    }
    if in_atomic {
        return (sites, regions);
    }

    let mut out: Vec<Stmt> = Vec::with_capacity(body.len());
    let mut run: Vec<Stmt> = Vec::new();
    let mut run_base: Option<String> = None;
    let mut run_sites: Vec<SiteId> = Vec::new();

    fn flush(
        out: &mut Vec<Stmt>,
        run: &mut Vec<Stmt>,
        run_base: &mut Option<String>,
        run_sites: &mut Vec<SiteId>,
        table: &mut BarrierTable,
        sites: &mut usize,
        regions: &mut usize,
    ) {
        // Only runs containing a write: an all-read region would take the
        // record exclusively to replace cheaper read barriers.
        let writes = run_sites.iter().any(|s| table.kind(*s) == BarrierKind::Write);
        if run_sites.len() >= 2 && writes {
            for s in run_sites.iter() {
                table.set(*s, BarrierKind::None);
            }
            *sites += run_sites.len();
            *regions += 1;
            out.push(Stmt::AggregatedRegion {
                base: run_base.take().expect("run has a base"),
                body: std::mem::take(run),
            });
        } else {
            out.append(run);
            *run_base = None;
        }
        run_sites.clear();
    }

    for stmt in std::mem::take(body) {
        match stmt_aggregation(&stmt, table) {
            StmtAgg::Accesses { base, sites: stmt_sites } => {
                if run_base.as_deref() == Some(base.as_str()) || run_base.is_none() {
                    run_base = Some(base);
                    run.push(stmt);
                    run_sites.extend(stmt_sites);
                } else {
                    flush(&mut out, &mut run, &mut run_base, &mut run_sites, table, &mut sites, &mut regions);
                    run_base = Some(base);
                    run.push(stmt);
                    run_sites = stmt_sites;
                }
            }
            StmtAgg::Neutral => {
                if run_base.is_some() {
                    run.push(stmt);
                } else {
                    out.push(stmt);
                }
            }
            StmtAgg::Breaks => {
                flush(&mut out, &mut run, &mut run_base, &mut run_sites, table, &mut sites, &mut regions);
                out.push(stmt);
            }
        }
    }
    flush(&mut out, &mut run, &mut run_base, &mut run_sites, table, &mut sites, &mut regions);
    *body = out;
    (sites, regions)
}

enum StmtAgg {
    /// Straight-line statement whose heap accesses all target `base` and are
    /// all currently barriered.
    Accesses {
        base: String,
        sites: Vec<SiteId>,
    },
    /// No heap accesses; cannot anchor a run but does not break one.
    Neutral,
    /// Anything else ends the current run.
    Breaks,
}

fn stmt_aggregation(stmt: &Stmt, table: &BarrierTable) -> StmtAgg {
    let (value, place) = match stmt {
        Stmt::Let { init, .. } => (init, None),
        Stmt::Assign { place, value } => (value, Some(place)),
        Stmt::Expr(e) => (e, None),
        _ => return StmtAgg::Breaks,
    };
    let mut base: Option<String> = None;
    let mut stmt_sites = Vec::new();
    let mut ok = true;
    collect_expr(value, &mut base, &mut stmt_sites, &mut ok, table);
    if let Some(place) = place {
        match place {
            Place::Local(_) => {}
            Place::Field { base: Expr::Local(n), site, .. } => {
                if base.get_or_insert_with(|| n.clone()) != n
                    || table.kind(*site) == BarrierKind::None
                {
                    ok = false;
                } else {
                    stmt_sites.push(*site);
                }
            }
            _ => ok = false,
        }
    }
    if !ok {
        return StmtAgg::Breaks;
    }
    match base {
        Some(base) => StmtAgg::Accesses { base, sites: stmt_sites },
        None => StmtAgg::Neutral,
    }
}

/// Checks `e` is expressible inside an aggregated region: constants, locals,
/// arithmetic, and barriered field loads from a single base local.
fn collect_expr(
    e: &Expr,
    base: &mut Option<String>,
    sites: &mut Vec<SiteId>,
    ok: &mut bool,
    table: &BarrierTable,
) {
    match e {
        Expr::Int(_) | Expr::Null | Expr::Local(_) => {}
        Expr::Field { base: b, site, .. } => match &**b {
            Expr::Local(n) => {
                if base.get_or_insert_with(|| n.clone()) != n
                    || table.kind(*site) == BarrierKind::None
                {
                    *ok = false;
                } else {
                    sites.push(*site);
                }
            }
            _ => *ok = false,
        },
        Expr::Bin { lhs, rhs, .. } => {
            collect_expr(lhs, base, sites, ok, table);
            collect_expr(rhs, base, sites, ok, table);
        }
        Expr::Un { expr, .. } => collect_expr(expr, base, sites, ok, table),
        _ => *ok = false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Vm, VmConfig};
    use crate::parse::parse;
    use crate::types::check;

    fn checked(src: &str) -> Checked {
        check(parse(src).unwrap()).unwrap()
    }

    #[test]
    fn final_fields_elided() {
        let mut c = checked(
            "class C { final id: int, x: int }\n\
             fn main() { let c: ref C = new C; c.x = c.id; print c.id; }",
        );
        let mut table = BarrierTable::strong(&c.program);
        let before = table.counts();
        let report = optimize(
            &mut c,
            &mut table,
            JitOptions { immutable: true, escape: false, aggregate: false },
        );
        assert_eq!(report.immutable_elided, 2, "two final loads elided");
        let after = table.counts();
        assert_eq!(before.0 - after.0, 2);
    }

    #[test]
    fn escape_analysis_finds_local_objects() {
        let f = checked(
            "class C { x: int, n: ref C }\n\
             static g: ref C;\n\
             fn main() {\n\
               let local: ref C = new C;\n\
               local.x = 1;\n\
               let escapes: ref C = new C;\n\
               g = escapes;\n\
               escapes.x = 2;\n\
             }",
        );
        let set = non_escaping_locals(f.program.func("main").unwrap());
        assert!(set.contains("local"));
        assert!(!set.contains("escapes"));
    }

    #[test]
    fn containment_propagates_escape() {
        let f = checked(
            "class C { x: int, n: ref C }\n\
             static g: ref C;\n\
             fn main() {\n\
               let inner: ref C = new C;\n\
               let outer: ref C = new C;\n\
               outer.n = inner;\n\
               g = outer;\n\
             }",
        );
        let set = non_escaping_locals(f.program.func("main").unwrap());
        assert!(!set.contains("outer"));
        assert!(!set.contains("inner"), "reachable through escaped container");
    }

    #[test]
    fn containment_in_local_container_is_fine() {
        let f = checked(
            "class C { x: int, n: ref C }\n\
             fn main() {\n\
               let inner: ref C = new C;\n\
               let outer: ref C = new C;\n\
               outer.n = inner;\n\
               outer.x = inner.x;\n\
             }",
        );
        let set = non_escaping_locals(f.program.func("main").unwrap());
        assert!(set.contains("outer"));
        assert!(set.contains("inner"));
    }

    #[test]
    fn call_args_escape() {
        let f = checked(
            "class C { x: int }\n\
             fn use_it(c: ref C) { c.x = 1; }\n\
             fn main() { let c: ref C = new C; use_it(c); }",
        );
        let set = non_escaping_locals(f.program.func("main").unwrap());
        assert!(!set.contains("c"));
    }

    #[test]
    fn escape_pass_removes_barriers() {
        let mut c = checked(
            "class C { x: int }\n\
             fn main() {\n\
               let c: ref C = new C;\n\
               let i: int = 0;\n\
               while (i < 4) { c.x = c.x + 1; i = i + 1; }\n\
             }",
        );
        let mut table = BarrierTable::strong(&c.program);
        let report = optimize(
            &mut c,
            &mut table,
            JitOptions { immutable: false, escape: true, aggregate: false },
        );
        assert_eq!(report.escape_elided, 2, "load + store through `c`");
        assert_eq!(table.counts(), (0, 0));
    }

    #[test]
    fn aggregation_rewrites_figure14_shape() {
        // The paper's Figure 14 example: a.x = 0; a.y = a.y + 1;
        let mut c = checked(
            "class A { x: int, y: int }\n\
             fn work(a: ref A) { a.x = 0; a.y = a.y + 1; }\n\
             fn main() { let a: ref A = new A; work(a); }",
        );
        let mut table = BarrierTable::strong(&c.program);
        let report = optimize(
            &mut c,
            &mut table,
            JitOptions { immutable: false, escape: false, aggregate: true },
        );
        assert_eq!(report.regions, 1);
        assert_eq!(report.aggregated_sites, 3, "two stores + one load");
        let work = c.program.func("work").unwrap();
        assert!(matches!(work.body[0], Stmt::AggregatedRegion { .. }));
        let (r, w) = table.counts();
        assert_eq!((r, w), (0, 0), "folded sites lost individual barriers");
    }

    #[test]
    fn aggregation_respects_object_boundaries() {
        let mut c = checked(
            "class A { x: int }\n\
             fn work(a: ref A, b: ref A) { a.x = 1; b.x = 2; a.x = 3; }\n\
             fn main() { let a: ref A = new A; let b: ref A = new A; work(a, b); }",
        );
        let mut table = BarrierTable::strong(&c.program);
        let report = optimize(
            &mut c,
            &mut table,
            JitOptions { immutable: false, escape: false, aggregate: true },
        );
        assert_eq!(report.regions, 0, "alternating objects cannot aggregate");
        assert_eq!(table.counts().1, 3, "write barriers intact");
    }

    #[test]
    fn aggregation_skips_atomic_bodies() {
        let mut c = checked(
            "class A { x: int, y: int }\n\
             static g: ref A;\n\
             fn main() { atomic { g.x = 0; g.y = g.y + 1; } }",
        );
        let mut table = BarrierTable::strong(&c.program);
        let report = optimize(
            &mut c,
            &mut table,
            JitOptions { immutable: false, escape: false, aggregate: true },
        );
        assert_eq!(report.regions, 0);
    }

    #[test]
    fn aggregated_program_still_computes_correctly() {
        let src = "class A { x: int, y: int }\n\
                   fn work(a: ref A) { a.x = 5; a.y = a.y + 1; a.y = a.y + a.x; }\n\
                   fn main() { let a: ref A = new A; work(a); work(a); print a.y; }";
        let mut c = checked(src);
        let mut table = BarrierTable::strong(&c.program);
        let report = optimize(&mut c, &mut table, JitOptions::all());
        assert!(report.regions >= 1);
        let vm = Vm::new(c, VmConfig { table, ..VmConfig::default() });
        let out = vm.run().unwrap();
        // work: y = y+1; y = y+5 → +6 per call, twice = 12.
        assert_eq!(out.output, vec![12]);
        assert!(out.stats.write_barriers <= 3);
    }
}
