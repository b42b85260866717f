//! End-to-end compiler tests: compile kernels at every technique, execute
//! them on the cycle-accurate simulator, and check outputs against host
//! reference computations — including the paper's exactness guarantee
//! that running all subword stages reproduces the precise result.

use wn_compiler::ir::{ArrayBuilder, Expr, KernelIr, Stmt};
use wn_compiler::{compile, CompiledKernel, Technique};
use wn_sim::{Core, CoreConfig};

/// Runs a compiled kernel with the given inputs to completion, returning
/// decoded outputs (one vec per output array) and the cycle count.
fn run(compiled: &CompiledKernel, inputs: &[(&str, Vec<i64>)]) -> (Vec<(String, Vec<i64>)>, u64) {
    let mut core = Core::new(&compiled.program, CoreConfig::default()).expect("core");
    for (name, values) in inputs {
        let (addr, bytes) = compiled.encode_input(name, values);
        core.mem.write_slice(addr, &bytes).expect("input injection");
    }
    core.run(200_000_000).expect("run to completion");
    let outputs = compiled
        .outputs
        .iter()
        .map(|name| {
            let layout = compiled.layout(name);
            let bytes = core
                .mem
                .slice(compiled.addr(name), layout.byte_size())
                .expect("output");
            (name.clone(), layout.decode(&bytes))
        })
        .collect();
    (outputs, core.stats.cycles)
}

fn listing1_kernel(n: u32) -> KernelIr {
    // Listing 1: X[i] += A[i] * F[i].
    KernelIr::new("listing1")
        .array(ArrayBuilder::input("A", n).elem16().asp_input())
        .array(ArrayBuilder::input("F", n).elem16())
        .array(ArrayBuilder::output("X", n).asp_output())
        .body(vec![Stmt::for_loop(
            "i",
            0,
            n as i32,
            vec![Stmt::accum_store(
                "X",
                Expr::var("i"),
                Expr::load("F", Expr::var("i")) * Expr::load("A", Expr::var("i")),
            )],
        )])
}

fn matadd_kernel(n: u32) -> KernelIr {
    KernelIr::new("matadd")
        .array(ArrayBuilder::input("A", n).elem32().asv_input())
        .array(ArrayBuilder::input("B", n).elem32().asv_input())
        .array(ArrayBuilder::output("X", n).elem32().asv_output())
        .body(vec![Stmt::for_loop(
            "i",
            0,
            n as i32,
            vec![Stmt::store(
                "X",
                Expr::var("i"),
                Expr::load("A", Expr::var("i")) + Expr::load("B", Expr::var("i")),
            )],
        )])
}

fn reduce_kernel(windows: u32, k: u32) -> KernelIr {
    KernelIr::new("reduce")
        .array(ArrayBuilder::input("S", windows * k).elem16().asv_input())
        .array(ArrayBuilder::output("OUT", windows).asv_output())
        .body(vec![Stmt::for_loop(
            "w",
            0,
            windows as i32,
            vec![Stmt::for_loop(
                "i",
                0,
                k as i32,
                vec![Stmt::accum_store(
                    "OUT",
                    Expr::var("w"),
                    Expr::load("S", Expr::var("w") * Expr::c(k as i32) + Expr::var("i")),
                )],
            )],
        )])
}

fn inputs_16(n: u32, seed: u64) -> Vec<i64> {
    (0..n as i64)
        .map(|i| ((i * 2654435761u32 as i64 + seed as i64 * 7919) >> 3) & 0xFFFF)
        .collect()
}

#[test]
fn precise_listing1_matches_reference() {
    let n = 16;
    let k = listing1_kernel(n);
    let a = inputs_16(n, 1);
    let f: Vec<i64> = (0..n as i64).map(|i| (i * 37 + 11) & 0x7FFF).collect();
    let compiled = compile(&k, Technique::Precise).unwrap();
    let (outputs, _) = run(&compiled, &[("A", a.clone()), ("F", f.clone())]);
    let expect: Vec<i64> = a.iter().zip(&f).map(|(x, y)| x * y).collect();
    assert_eq!(outputs[0].1, expect);
}

#[test]
fn swp_reaches_precise_result_at_all_granularities() {
    // §III-A: distributivity over addition guarantees the precise result
    // once all subwords are processed.
    let n = 16;
    let k = listing1_kernel(n);
    let a = inputs_16(n, 2);
    let f: Vec<i64> = (0..n as i64).map(|i| (i * 131 + 7) & 0x7FFF).collect();
    let expect: Vec<i64> = a.iter().zip(&f).map(|(x, y)| x * y).collect();
    for bits in [1u8, 2, 3, 4, 8, 16] {
        let compiled = compile(&k, Technique::swp(bits)).unwrap();
        let (outputs, _) = run(&compiled, &[("A", a.clone()), ("F", f.clone())]);
        assert_eq!(
            outputs[0].1, expect,
            "swp({bits}) must be exact at completion"
        );
    }
}

#[test]
fn swp_vectorized_loads_match_and_save_cycles() {
    let n = 32;
    let k = listing1_kernel(n);
    let a = inputs_16(n, 3);
    let f: Vec<i64> = (0..n as i64).map(|i| (i * 57 + 3) & 0x7FFF).collect();
    let expect: Vec<i64> = a.iter().zip(&f).map(|(x, y)| x * y).collect();

    let plain = compile(&k, Technique::swp(8)).unwrap();
    let vectorized = compile(&k, Technique::swp_vectorized(8)).unwrap();
    let (out_p, cycles_p) = run(&plain, &[("A", a.clone()), ("F", f.clone())]);
    let (out_v, cycles_v) = run(&vectorized, &[("A", a.clone()), ("F", f.clone())]);
    assert_eq!(out_p[0].1, expect);
    assert_eq!(out_v[0].1, expect);
    assert!(
        cycles_v < cycles_p,
        "vectorized loads must save cycles: {cycles_v} vs {cycles_p}"
    );
}

#[test]
fn swp_cycle_cost_ordering() {
    // Total runtime to the precise result grows as subwords shrink
    // (§V-A), while the precise baseline is fastest.
    let n = 16;
    let k = listing1_kernel(n);
    let a = inputs_16(n, 4);
    let f = vec![3i64; n as usize];
    let mut cycles = Vec::new();
    for t in [Technique::Precise, Technique::swp(8), Technique::swp(4)] {
        let compiled = compile(&k, t).unwrap();
        let (_, c) = run(&compiled, &[("A", a.clone()), ("F", f.clone())]);
        cycles.push((t, c));
    }
    assert!(
        cycles[0].1 < cycles[1].1,
        "precise faster than swp8 overall: {cycles:?}"
    );
    assert!(
        cycles[1].1 < cycles[2].1,
        "swp8 faster than swp4 overall: {cycles:?}"
    );
}

#[test]
fn swv_map_provisioned_is_exact() {
    let n = 16;
    let k = matadd_kernel(n);
    let a: Vec<i64> = (0..n as i64).map(|i| i * 0x0101_0101 + 0xFF).collect();
    let b: Vec<i64> = (0..n as i64).map(|i| i * 0x0202_0101 + 0x01).collect();
    let expect: Vec<i64> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| ((*x as u32).wrapping_add(*y as u32)) as i64)
        .collect();
    for bits in [4u8, 8, 16] {
        let compiled = compile(&k, Technique::swv(bits)).unwrap();
        let (outputs, _) = run(&compiled, &[("A", a.clone()), ("B", b.clone())]);
        let got: Vec<i64> = outputs[0].1.iter().map(|&v| v as u32 as i64).collect();
        assert_eq!(got, expect, "swv({bits}) provisioned must be exact");
    }
}

#[test]
fn swv_map_unprovisioned_drops_carries() {
    // Fig. 14: without provisioning, carry-out bits between subwords are
    // lost and the final result is NOT precise when carries occur.
    let n = 8;
    let k = matadd_kernel(n);
    let a = vec![0x0000_00FFi64; n as usize];
    let b = vec![0x0000_0001i64; n as usize];
    let compiled = compile(&k, Technique::swv_unprovisioned(8)).unwrap();
    let (outputs, _) = run(&compiled, &[("A", a), ("B", b)]);
    // 0xFF + 0x01 = 0x100; the carry into the second subword is dropped,
    // leaving 0.
    assert!(
        outputs[0].1.iter().all(|&v| v == 0),
        "carries must be dropped: {:?}",
        outputs[0].1
    );
}

#[test]
fn swv_map_subtraction_is_exact_when_provisioned() {
    let n = 8;
    let mut k = matadd_kernel(n);
    // Rebuild with subtraction.
    k.body = vec![Stmt::for_loop(
        "i",
        0,
        n as i32,
        vec![Stmt::store(
            "X",
            Expr::var("i"),
            Expr::load("A", Expr::var("i")) - Expr::load("B", Expr::var("i")),
        )],
    )];
    let a: Vec<i64> = (0..n as i64).map(|i| 1000 * i + 500).collect();
    let b: Vec<i64> = (0..n as i64).map(|i| 900 * i + 600).collect();
    let expect: Vec<i64> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (*x as u32).wrapping_sub(*y as u32) as i32 as i64)
        .collect();
    let compiled = compile(&k, Technique::swv(8)).unwrap();
    let (outputs, _) = run(&compiled, &[("A", a.clone()), ("B", b.clone())]);
    let got: Vec<i64> = outputs[0].1.iter().map(|&v| v as i32 as i64).collect();
    assert_eq!(got, expect);
}

#[test]
fn swv_reduce_is_exact_when_provisioned() {
    let (w, kk) = (4u32, 16u32);
    let k = reduce_kernel(w, kk);
    let s = inputs_16(w * kk, 5);
    let expect: Vec<i64> = (0..w as usize)
        .map(|wi| {
            s[wi * kk as usize..(wi + 1) * kk as usize]
                .iter()
                .sum::<i64>()
        })
        .collect();
    for bits in [4u8, 8] {
        let compiled = compile(&k, Technique::swv(bits)).unwrap();
        let (outputs, _) = run(&compiled, &[("S", s.clone())]);
        assert_eq!(outputs[0].1, expect, "swv-reduce({bits})");
    }
}

#[test]
fn swv_reduce_msb_first_approximation_improves() {
    // After only the MSB level, the decoded output approximates the sum;
    // additional levels must tighten it monotonically on this data.
    let (w, kk) = (2u32, 8u32);
    let k = reduce_kernel(w, kk);
    let s: Vec<i64> = (0..(w * kk) as i64).map(|i| 0x0101 * (i % 200)).collect();
    let expect: Vec<i64> = (0..w as usize)
        .map(|wi| {
            s[wi * kk as usize..(wi + 1) * kk as usize]
                .iter()
                .sum::<i64>()
        })
        .collect();

    let compiled = compile(&k, Technique::swv(8)).unwrap();
    let mut core = Core::new(&compiled.program, CoreConfig::default()).unwrap();
    let (addr, bytes) = compiled.encode_input("S", &s);
    core.mem.write_slice(addr, &bytes).unwrap();

    let out_layout = compiled.layout("OUT");
    let out_addr = compiled.addr("OUT");
    let mut errs: Vec<f64> = Vec::new();
    let mut skims = 0;
    loop {
        let info = core.step().unwrap();
        if let wn_sim::StepEvent::SkimSet(_) = info.event {
            skims += 1;
            let bytes = core.mem.slice(out_addr, out_layout.byte_size()).unwrap();
            let decoded = out_layout.decode(&bytes);
            let err: f64 = decoded
                .iter()
                .zip(&expect)
                .map(|(d, e)| ((d - e).abs() as f64) / (*e as f64))
                .sum::<f64>();
            errs.push(err);
        }
        if core.is_halted() {
            break;
        }
    }
    assert_eq!(skims, 1, "16-bit data / 8-bit subwords → one skim point");
    assert!(errs[0] < 0.05, "MSB-only error should be small: {errs:?}");
}

#[test]
fn skim_register_set_during_swp() {
    let n = 8;
    let k = listing1_kernel(n);
    let compiled = compile(&k, Technique::swp(8)).unwrap();
    let mut core = Core::new(&compiled.program, CoreConfig::default()).unwrap();
    core.run(1_000_000).unwrap();
    let end = compiled.program.code_symbol("__end").unwrap();
    assert_eq!(core.cpu.skm, Some(end));
}

#[test]
fn instruction_mix_has_expected_wn_classes() {
    use wn_sim::InstrClass;
    let n = 16;
    let k = listing1_kernel(n);
    let a = inputs_16(n, 6);
    let f = vec![5i64; n as usize];

    let precise = compile(&k, Technique::Precise).unwrap();
    let mut core = Core::new(&precise.program, CoreConfig::default()).unwrap();
    let (addr, bytes) = precise.encode_input("A", &a);
    core.mem.write_slice(addr, &bytes).unwrap();
    let (addr, bytes) = precise.encode_input("F", &f);
    core.mem.write_slice(addr, &bytes).unwrap();
    core.run(10_000_000).unwrap();
    assert_eq!(core.stats.count(InstrClass::Mul), n as u64);
    assert_eq!(core.stats.count(InstrClass::MulAsp), 0);

    let swp = compile(&k, Technique::swp(8)).unwrap();
    let mut core = Core::new(&swp.program, CoreConfig::default()).unwrap();
    core.run(10_000_000).unwrap();
    assert_eq!(core.stats.count(InstrClass::Mul), 0);
    assert_eq!(core.stats.count(InstrClass::MulAsp), 2 * n as u64);
}
