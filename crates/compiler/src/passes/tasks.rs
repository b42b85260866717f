//! Alpaca-style task decomposition.
//!
//! Splits a kernel body into *tasks* at loop-iteration granularity: each
//! top-level `For` (with any preceding straight-line statements) becomes
//! a run of tasks — the loop is **strip-mined** into up to
//! `TARGET_STRIPS` sub-ranges, each strip one task — and trailing
//! statements form a tail task. Strip-mining is what makes the
//! decomposition *live* on harvested power: a task re-executes from its
//! entry after every outage, so a task longer than one full charge never
//! commits (Alpaca's non-termination condition). Whole quick-scale
//! kernel loops run to hundreds of thousands of cycles; sixths of them
//! fit comfortably inside realistic supercapacitor charges.
//!
//! A task must be **idempotent** — re-executing it from its entry after
//! a power outage must produce the same final memory image — so every
//! array a task both reads and writes (a WAR hazard under re-execution:
//! the second attempt would read its own partial writes) is
//! *privatized*: the task works on a `__shadow_*` copy, and an explicit
//! commit sequence copies the shadow back to the master at the task
//! boundary. Each strip privatizes and commits independently, so strip
//! `s+1`'s copy-in reads the master that strip `s`'s commit made
//! durable.
//!
//! The emitted shape per task `k`:
//!
//! ```text
//! __task{k}:                       ; task entry (re-execution target)
//!     CopyArray __shadow_X <- X    ; privatization copy-in
//!     ... body, X rewritten to __shadow_X ...
//! __commit{k}:                     ; own region: re-entering it must
//!     CopyArray X <- __shadow_X    ; NOT re-run the copy-in above
//! ```
//!
//! The commit sequence is a region of its own because re-execution
//! restarts from the *current region's* entry: if an outage lands
//! mid-commit, the shadow (untouched by the commit) is simply copied
//! again; if the commit were part of the next task, its copy-in would
//! re-read a half-committed master and corrupt read-modify-write
//! results. Write-only and read-only arrays need no privatization —
//! deterministic re-execution overwrites partial writes in place.
//!
//! The pass returns the boundary labels in program order; the compile
//! driver resolves them to program counters after lowering (labels cost
//! zero instructions) and publishes them as
//! [`crate::compile::TaskSpan`]s for the runtime substrate.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::ir::{Expr, KernelIr, Stmt};
use crate::layout::ArrayLayout;

/// One boundary label the pass planted, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskLabel {
    /// Label name bound in the lowered program.
    pub label: String,
    /// Whether the region starting here is a commit sequence.
    pub is_commit: bool,
    /// Data words the commit copies back (0 for task-body regions).
    pub privatized_words: u64,
}

/// Decomposes `kernel` into tasks in place, adding shadow arrays (and
/// their layouts, cloned from the privatized masters) as needed.
/// Returns the planted boundary labels in program order.
pub fn apply(kernel: &mut KernelIr, layouts: &mut HashMap<String, ArrayLayout>) -> Vec<TaskLabel> {
    let tasks = split_tasks(std::mem::take(&mut kernel.body));
    let mut labels = Vec::new();
    let mut body = Vec::new();
    let mut shadowed: BTreeSet<String> = BTreeSet::new();

    for (k, task) in tasks.into_iter().enumerate() {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        collect_sets(&task, &mut reads, &mut writes);
        let privatized: Vec<String> = writes.intersection(&reads).cloned().collect();
        let rename: BTreeMap<String, String> = privatized
            .iter()
            .map(|a| (a.clone(), shadow_name(a)))
            .collect();

        labels.push(TaskLabel {
            label: format!("__task{k}"),
            is_commit: false,
            privatized_words: 0,
        });
        body.push(Stmt::Label(format!("__task{k}")));
        for a in &privatized {
            body.push(Stmt::CopyArray {
                dst: shadow_name(a),
                src: a.clone(),
            });
        }
        for mut s in task {
            rename_stmt(&mut s, &rename);
            body.push(s);
        }
        if !privatized.is_empty() {
            let words: u64 = privatized
                .iter()
                .map(|a| {
                    let bytes = layouts.get(a).map_or(0, ArrayLayout::byte_size);
                    u64::from(bytes.div_ceil(4))
                })
                .sum();
            labels.push(TaskLabel {
                label: format!("__commit{k}"),
                is_commit: true,
                privatized_words: words,
            });
            body.push(Stmt::Label(format!("__commit{k}")));
            for a in &privatized {
                body.push(Stmt::CopyArray {
                    dst: a.clone(),
                    src: shadow_name(a),
                });
            }
        }
        shadowed.extend(privatized);
    }

    for a in &shadowed {
        let master = kernel
            .find_array(a)
            .expect("privatized arrays come from the kernel")
            .clone();
        let mut decl = master;
        decl.name = shadow_name(a);
        decl.is_output = false;
        kernel.arrays.push(decl);
        if let Some(layout) = layouts.get(a).copied() {
            layouts.insert(shadow_name(a), layout);
        }
    }
    kernel.body = body;
    labels
}

fn shadow_name(array: &str) -> String {
    format!("__shadow_{array}")
}

/// Strips each top-level loop decomposes into. Six keeps the largest
/// task near a sixth of its loop's cycle count (so it fits a realistic
/// charge) while bounding the per-strip privatization copy overhead.
const TARGET_STRIPS: i32 = 6;

/// Groups top-level statements into tasks: each top-level `For` is
/// strip-mined into up to [`TARGET_STRIPS`] contiguous sub-range loops,
/// each closing a task (straight-line statements before the loop ride
/// along as the first strip's prefix); trailing statements form a tail
/// task. A body with no loops is a single task.
fn split_tasks(body: Vec<Stmt>) -> Vec<Vec<Stmt>> {
    let mut tasks = Vec::new();
    let mut pending = Vec::new();
    for s in body {
        if let Stmt::For {
            var,
            start,
            end,
            body,
        } = s
        {
            let trip = end - start;
            let strip = (trip + TARGET_STRIPS - 1) / TARGET_STRIPS;
            if strip <= 0 {
                // Empty loop: keep it (it still defines program order)
                // and close the pending task.
                pending.push(Stmt::For {
                    var,
                    start,
                    end,
                    body,
                });
                tasks.push(std::mem::take(&mut pending));
                continue;
            }
            let mut lo = start;
            while lo < end {
                let hi = (lo + strip).min(end);
                pending.push(Stmt::For {
                    var: var.clone(),
                    start: lo,
                    end: hi,
                    body: body.clone(),
                });
                tasks.push(std::mem::take(&mut pending));
                lo = hi;
            }
        } else {
            pending.push(s);
        }
    }
    if !pending.is_empty() || tasks.is_empty() {
        tasks.push(pending);
    }
    tasks
}

/// Accumulates the arrays a statement list reads and writes.
/// `AccumStore` reads *and* writes its target — the canonical WAR
/// hazard task privatization exists for.
fn collect_sets(stmts: &[Stmt], reads: &mut BTreeSet<String>, writes: &mut BTreeSet<String>) {
    let read_expr = |e: &Expr, reads: &mut BTreeSet<String>| {
        e.visit(&mut |node| {
            if let Expr::Load { array, .. }
            | Expr::LoadSub { array, .. }
            | Expr::LoadPacked { array, .. } = node
            {
                reads.insert(array.clone());
            }
        });
    };
    for s in stmts {
        match s {
            Stmt::For { body, .. } => collect_sets(body, reads, writes),
            Stmt::Store {
                array,
                index,
                value,
            } => {
                writes.insert(array.clone());
                read_expr(index, reads);
                read_expr(value, reads);
            }
            Stmt::AccumStore {
                array,
                index,
                value,
            } => {
                writes.insert(array.clone());
                reads.insert(array.clone());
                read_expr(index, reads);
                read_expr(value, reads);
            }
            Stmt::StorePacked {
                array,
                word_index,
                value,
                ..
            } => {
                writes.insert(array.clone());
                read_expr(word_index, reads);
                read_expr(value, reads);
            }
            Stmt::StoreComponent {
                array,
                elem_index,
                value,
                ..
            } => {
                writes.insert(array.clone());
                read_expr(elem_index, reads);
                read_expr(value, reads);
            }
            Stmt::Assign { value, .. } => read_expr(value, reads),
            Stmt::CopyArray { dst, src } => {
                writes.insert(dst.clone());
                reads.insert(src.clone());
            }
            Stmt::SkimPoint | Stmt::Label(_) => {}
        }
    }
}

/// Rewrites every array reference per `rename` (privatized master →
/// shadow), stores and loads alike.
fn rename_stmt(stmt: &mut Stmt, rename: &BTreeMap<String, String>) {
    if rename.is_empty() {
        return;
    }
    let fix = |name: &mut String| {
        if let Some(to) = rename.get(name) {
            *name = to.clone();
        }
    };
    match stmt {
        Stmt::For { body, .. } => {
            for s in body {
                rename_stmt(s, rename);
            }
        }
        Stmt::Store {
            array,
            index,
            value,
        }
        | Stmt::AccumStore {
            array,
            index,
            value,
        } => {
            fix(array);
            rename_expr(index, rename);
            rename_expr(value, rename);
        }
        Stmt::StorePacked {
            array,
            word_index,
            value,
            ..
        } => {
            fix(array);
            rename_expr(word_index, rename);
            rename_expr(value, rename);
        }
        Stmt::StoreComponent {
            array,
            elem_index,
            value,
            ..
        } => {
            fix(array);
            rename_expr(elem_index, rename);
            rename_expr(value, rename);
        }
        Stmt::Assign { value, .. } => rename_expr(value, rename),
        Stmt::CopyArray { dst, src } => {
            fix(dst);
            fix(src);
        }
        Stmt::SkimPoint | Stmt::Label(_) => {}
    }
}

fn rename_expr(e: &mut Expr, rename: &BTreeMap<String, String>) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Load { array, index } => {
            if let Some(to) = rename.get(array) {
                *array = to.clone();
            }
            rename_expr(index, rename);
        }
        Expr::LoadSub { array, index, .. } => {
            if let Some(to) = rename.get(array) {
                *array = to.clone();
            }
            rename_expr(index, rename);
        }
        Expr::LoadPacked {
            array, word_index, ..
        } => {
            if let Some(to) = rename.get(array) {
                *array = to.clone();
            }
            rename_expr(word_index, rename);
        }
        Expr::Bin { a, b, .. } | Expr::AsvBin { a, b, .. } => {
            rename_expr(a, rename);
            rename_expr(b, rename);
        }
        Expr::MulAsp { full, sub, .. } => {
            rename_expr(full, rename);
            rename_expr(sub, rename);
        }
        Expr::Shl(x, _) | Expr::Shr(x, _) | Expr::HSum { value: x, .. } => rename_expr(x, rename),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use crate::ir::{ArrayBuilder, KernelIr, Stmt};
    use crate::layout::ElemType;

    fn rmw_kernel() -> KernelIr {
        // X is read *and* written (AccumStore): must be privatized.
        KernelIr::new("rmw")
            .array(ArrayBuilder::input("A", 8).elem16())
            .array(ArrayBuilder::output("X", 8))
            .body(vec![
                Stmt::for_loop(
                    "i",
                    0,
                    8,
                    vec![Stmt::accum_store(
                        "X",
                        Expr::var("i"),
                        Expr::load("A", Expr::var("i")),
                    )],
                ),
                Stmt::for_loop(
                    "j",
                    0,
                    8,
                    vec![Stmt::accum_store(
                        "X",
                        Expr::var("j"),
                        Expr::load("A", Expr::var("j")) * Expr::c(2),
                    )],
                ),
            ])
    }

    fn layouts_for(k: &KernelIr) -> HashMap<String, ArrayLayout> {
        k.arrays
            .iter()
            .map(|a| {
                (
                    a.name.clone(),
                    ArrayLayout::RowMajor {
                        elem: a.elem,
                        len: a.len,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn rmw_arrays_are_privatized_and_committed() {
        let mut k = rmw_kernel();
        let mut layouts = layouts_for(&k);
        let labels = apply(&mut k, &mut layouts);
        k.validate().unwrap();
        // Each 8-iteration loop strip-mines into four 2-iteration
        // tasks, every one privatizing X and committing it back.
        assert_eq!(labels.len(), 16);
        assert_eq!(labels[0].label, "__task0");
        assert_eq!(labels[1].label, "__commit0");
        assert_eq!(labels[15].label, "__commit7");
        assert!(labels.iter().skip(1).step_by(2).all(|l| l.is_commit));
        // 8 × u32 = 8 words copied per commit.
        assert_eq!(labels[1].privatized_words, 8);
        assert!(k.find_array("__shadow_X").is_some());
        assert!(layouts.contains_key("__shadow_X"));
        // The loop body now targets the shadow.
        let has_shadow_store = k.body.iter().any(|s| match s {
            Stmt::For { body, .. } => body
                .iter()
                .any(|s| matches!(s, Stmt::AccumStore { array, .. } if array == "__shadow_X")),
            _ => false,
        });
        assert!(has_shadow_store, "{:#?}", k.body);
    }

    #[test]
    fn write_only_arrays_are_not_privatized() {
        let mut k = KernelIr::new("wo")
            .array(ArrayBuilder::input("A", 4).elem16())
            .array(ArrayBuilder::output("X", 4))
            .body(vec![Stmt::for_loop(
                "i",
                0,
                4,
                vec![Stmt::store(
                    "X",
                    Expr::var("i"),
                    Expr::load("A", Expr::var("i")),
                )],
            )]);
        let mut layouts = layouts_for(&k);
        let labels = apply(&mut k, &mut layouts);
        k.validate().unwrap();
        // Four single-iteration strips, none privatizing anything.
        assert_eq!(labels.len(), 4, "no commit regions without privatization");
        assert!(labels.iter().all(|l| !l.is_commit));
        assert!(k.find_array("__shadow_X").is_none());
    }

    #[test]
    fn loopless_body_is_a_single_task() {
        let mut k = KernelIr::new("flat")
            .array(ArrayBuilder::output("X", 1))
            .body(vec![Stmt::store("X", Expr::c(0), Expr::c(7))]);
        let mut layouts = layouts_for(&k);
        let labels = apply(&mut k, &mut layouts);
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].label, "__task0");
    }

    #[test]
    fn trailing_statements_form_a_tail_task() {
        let mut k = KernelIr::new("tail")
            .array(ArrayBuilder::output("X", 4))
            .body(vec![
                Stmt::for_loop(
                    "i",
                    0,
                    4,
                    vec![Stmt::store("X", Expr::var("i"), Expr::var("i"))],
                ),
                Stmt::store("X", Expr::c(0), Expr::load("X", Expr::c(3))),
            ]);
        let mut layouts = layouts_for(&k);
        let labels = apply(&mut k, &mut layouts);
        // Tasks 0–3: the loop's four strips (write-only). Task 4: the
        // tail store, which reads and writes X, so it commits.
        assert_eq!(
            labels.iter().map(|l| l.label.as_str()).collect::<Vec<_>>(),
            vec![
                "__task0",
                "__task1",
                "__task2",
                "__task3",
                "__task4",
                "__commit4"
            ]
        );
    }

    /// Strip bounds must tile the original iteration space exactly —
    /// including trip counts that do not divide evenly and loops whose
    /// bounds do not start at zero.
    #[test]
    fn strip_mining_tiles_the_iteration_space() {
        for (start, end) in [(0, 7), (0, 6), (0, 5), (2, 13), (0, 1), (3, 3)] {
            let tasks = split_tasks(vec![Stmt::for_loop(
                "i",
                start,
                end,
                vec![Stmt::store("X", Expr::var("i"), Expr::var("i"))],
            )]);
            let mut covered = Vec::new();
            for t in &tasks {
                for s in t {
                    if let Stmt::For { start, end, .. } = s {
                        covered.extend(*start..*end);
                    }
                }
            }
            assert_eq!(covered, (start..end).collect::<Vec<_>>(), "[{start},{end})");
            assert!(tasks.len() <= TARGET_STRIPS as usize + 1, "[{start},{end})");
        }
    }

    /// Strip-mined decomposition of an uneven trip count still computes
    /// exactly what the plain kernel computes.
    #[test]
    fn strip_mining_preserves_semantics_for_uneven_trips() {
        let build = || {
            KernelIr::new("uneven")
                .array(ArrayBuilder::input("A", 7).elem16())
                .array(ArrayBuilder::output("X", 7))
                .body(vec![Stmt::for_loop(
                    "i",
                    0,
                    7,
                    vec![Stmt::accum_store(
                        "X",
                        Expr::var("i"),
                        Expr::load("A", Expr::var("i")),
                    )],
                )])
        };
        let plain = build();
        let mut decomposed = build();
        let mut layouts = layouts_for(&decomposed);
        apply(&mut decomposed, &mut layouts);
        decomposed.validate().unwrap();
        let inputs = [(
            "A".to_string(),
            (0..7).map(|v| (v * 37 + 5) as i64 & 0xFFFF).collect(),
        )];
        let a = interpret(&plain, &inputs, &["X"]).unwrap();
        let b = interpret(&decomposed, &inputs, &["X"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decomposition_preserves_semantics() {
        let plain = rmw_kernel();
        let mut decomposed = rmw_kernel();
        let mut layouts = layouts_for(&decomposed);
        apply(&mut decomposed, &mut layouts);
        decomposed.validate().unwrap();
        let inputs = [(
            "A".to_string(),
            (0..8).map(|v| (v * 91 + 13) as i64 & 0xFFFF).collect(),
        )];
        let a = interpret(&plain, &inputs, &["X"]).unwrap();
        let b = interpret(&decomposed, &inputs, &["X"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shadow_layout_mirrors_master() {
        let mut k = rmw_kernel();
        let mut layouts = layouts_for(&k);
        apply(&mut k, &mut layouts);
        assert_eq!(layouts["__shadow_X"], layouts["X"]);
        let elem: ElemType = k.find_array("__shadow_X").unwrap().elem;
        assert_eq!(elem, k.find_array("X").unwrap().elem);
    }
}
