//! Differential fuzzing: random kernels, compiled through the full
//! pipeline (validation → hoisting → pointer induction → codegen) and
//! executed on the cycle-accurate simulator, must agree exactly with the
//! reference IR interpreter.
//!
//! All arithmetic is 32-bit wrapping on both sides, so the generated
//! expressions can combine loads, constants and loop variables freely.

use proptest::prelude::*;

use wn_compiler::interp::interpret;
use wn_compiler::ir::{ArrayBuilder, BinOp, Expr, KernelIr, Stmt};
use wn_compiler::{compile, Technique};
use wn_sim::{Core, CoreConfig};

const N: u32 = 16;

/// A generated scalar expression over the loop variables in scope.
#[derive(Debug, Clone)]
enum GenExpr {
    Const(i32),
    LoopVar(u8),
    LoadA(Box<GenExpr>),
    LoadB(Box<GenExpr>),
    Bin(u8, Box<GenExpr>, Box<GenExpr>),
    Shift(bool, u8, Box<GenExpr>),
}

impl GenExpr {
    /// Renders into IR, clamping index expressions into bounds with a
    /// mask (arrays have power-of-two length N).
    fn to_expr(&self, vars: &[&str]) -> Expr {
        match self {
            GenExpr::Const(c) => Expr::c(*c),
            GenExpr::LoopVar(i) => Expr::var(vars[*i as usize % vars.len()]),
            GenExpr::LoadA(idx) => Expr::load("A", Self::bounded(idx.to_expr(vars))),
            GenExpr::LoadB(idx) => Expr::load("B", Self::bounded(idx.to_expr(vars))),
            GenExpr::Bin(op, a, b) => {
                let (a, b) = (a.to_expr(vars), b.to_expr(vars));
                let op = match op % 6 {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::And,
                    4 => BinOp::Or,
                    _ => BinOp::Xor,
                };
                Expr::Bin {
                    op,
                    a: Box::new(a),
                    b: Box::new(b),
                }
            }
            GenExpr::Shift(left, sh, x) => {
                let x = x.to_expr(vars);
                if *left {
                    x.shl(sh % 5)
                } else {
                    x.shr(sh % 5)
                }
            }
        }
    }

    /// Masks an index into `0..N`.
    fn bounded(e: Expr) -> Expr {
        e.and(Expr::c(N as i32 - 1))
    }
}

fn arb_genexpr(depth: u32) -> BoxedStrategy<GenExpr> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(GenExpr::Const),
        (0u8..2).prop_map(GenExpr::LoopVar),
    ];
    leaf.prop_recursive(depth, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|i| GenExpr::LoadA(Box::new(i))),
            inner.clone().prop_map(|i| GenExpr::LoadB(Box::new(i))),
            (any::<u8>(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| GenExpr::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (any::<bool>(), any::<u8>(), inner).prop_map(|(l, sh, x)| GenExpr::Shift(
                l,
                sh,
                Box::new(x)
            )),
        ]
    })
    .boxed()
}

/// Kernel shapes the generator instantiates.
#[derive(Debug, Clone)]
enum Shape {
    /// `for i { X[i] = e(i) }`
    Map(GenExpr),
    /// `for i { X[i] += e(i) }`
    MapAccum(GenExpr),
    /// `for i { for j { X[i*4+j] = e(i, j) } }` (N = 16 = 4×4)
    Nest(GenExpr),
    /// `for i { acc = 0; for j { acc = acc + e(i, j) }; X[i] += acc }`
    Reduce(GenExpr),
}

fn arb_shape() -> BoxedStrategy<Shape> {
    prop_oneof![
        arb_genexpr(2).prop_map(Shape::Map),
        arb_genexpr(2).prop_map(Shape::MapAccum),
        arb_genexpr(2).prop_map(Shape::Nest),
        arb_genexpr(2).prop_map(Shape::Reduce),
    ]
    .boxed()
}

fn build_kernel(shape: &Shape) -> KernelIr {
    let base = KernelIr::new("fuzz")
        .array(ArrayBuilder::input("A", N).elem16())
        .array(ArrayBuilder::input("B", N).elem32())
        .array(ArrayBuilder::output("X", N).elem32());
    let body = match shape {
        Shape::Map(e) => vec![Stmt::for_loop(
            "i",
            0,
            N as i32,
            vec![Stmt::store("X", Expr::var("i"), e.to_expr(&["i"]))],
        )],
        Shape::MapAccum(e) => vec![Stmt::for_loop(
            "i",
            0,
            N as i32,
            vec![Stmt::accum_store("X", Expr::var("i"), e.to_expr(&["i"]))],
        )],
        Shape::Nest(e) => vec![Stmt::for_loop(
            "i",
            0,
            4,
            vec![Stmt::for_loop(
                "j",
                0,
                4,
                vec![Stmt::store(
                    "X",
                    Expr::var("i") * Expr::c(4) + Expr::var("j"),
                    e.to_expr(&["i", "j"]),
                )],
            )],
        )],
        Shape::Reduce(e) => vec![Stmt::for_loop(
            "i",
            0,
            N as i32,
            vec![
                Stmt::assign("acc", Expr::c(0)),
                Stmt::for_loop(
                    "j",
                    0,
                    4,
                    vec![Stmt::assign(
                        "acc",
                        Expr::var("acc") + e.to_expr(&["i", "j"]),
                    )],
                ),
                Stmt::accum_store("X", Expr::var("i"), Expr::var("acc")),
            ],
        )],
    };
    base.body(body)
}

/// A Listing-1-shaped MAC kernel with annotation, for technique fuzzing:
/// X[i] += A[perm(i)] * F[i] over n elements, A subworded.
fn mac_kernel(n: u32, stride: u32, offset: u32) -> KernelIr {
    KernelIr::new("fuzzmac")
        .array(
            ArrayBuilder::input("A", n * stride + offset)
                .elem16()
                .asp_input(),
        )
        .array(ArrayBuilder::input("F", n).elem16())
        .array(ArrayBuilder::output("X", n).asp_output())
        .body(vec![Stmt::for_loop(
            "i",
            0,
            n as i32,
            vec![Stmt::accum_store(
                "X",
                Expr::var("i"),
                Expr::load(
                    "A",
                    Expr::var("i") * Expr::c(stride as i32) + Expr::c(offset as i32),
                ) * Expr::load("F", Expr::var("i")),
            )],
        )])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SWP at arbitrary subword sizes is exact at completion on random
    /// data and strides (the §III-A distributivity guarantee, fuzzed).
    #[test]
    fn swp_matches_interpreter_on_random_mac_kernels(
        bits in 1u8..=16,
        stride in 1u32..4,
        offset in 0u32..3,
        a in proptest::collection::vec(0i64..0x1_0000, 64..=64),
        f in proptest::collection::vec(0i64..0x1_0000, 16..=16),
    ) {
        let n = 16u32;
        let kernel = mac_kernel(n, stride, offset);
        let a = a[..(n * stride + offset) as usize].to_vec();
        let inputs = [("A".to_string(), a), ("F".to_string(), f)];
        let expected = interpret(&kernel, &inputs, &["X"]).unwrap();

        let compiled = compile(&kernel, Technique::swp(bits)).unwrap();
        let mut core = Core::new(&compiled.program, CoreConfig::default()).unwrap();
        for (name, values) in &inputs {
            let (addr, bytes) = compiled.encode_input(name, values);
            core.mem.write_slice(addr, &bytes).unwrap();
        }
        core.run(50_000_000).unwrap();
        let layout = compiled.layout("X");
        let bytes = core.mem.slice(compiled.addr("X"), layout.byte_size()).unwrap();
        prop_assert_eq!(&layout.decode(&bytes), &expected[0].1);
    }

    /// Provisioned SWV maps are exact at completion on random 32-bit data
    /// for every legal subword size.
    #[test]
    fn swv_map_matches_wrapping_reference(
        bits in prop_oneof![Just(4u8), Just(8), Just(16)],
        sub in any::<bool>(),
        a in proptest::collection::vec(any::<u32>(), 16..=16),
        b in proptest::collection::vec(any::<u32>(), 16..=16),
    ) {
        let n = 16u32;
        let value = if sub {
            Expr::load("A", Expr::var("i")) - Expr::load("B", Expr::var("i"))
        } else {
            Expr::load("A", Expr::var("i")) + Expr::load("B", Expr::var("i"))
        };
        let kernel = KernelIr::new("fuzzmap")
            .array(ArrayBuilder::input("A", n).elem32().asv_input())
            .array(ArrayBuilder::input("B", n).elem32().asv_input())
            .array(ArrayBuilder::output("X", n).elem32().asv_output())
            .body(vec![Stmt::for_loop(
                "i",
                0,
                n as i32,
                vec![Stmt::store("X", Expr::var("i"), value)],
            )]);
        let expected: Vec<u32> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| if sub { x.wrapping_sub(y) } else { x.wrapping_add(y) })
            .collect();

        let inputs = [
            ("A".to_string(), a.iter().map(|&v| v as i64).collect::<Vec<_>>()),
            ("B".to_string(), b.iter().map(|&v| v as i64).collect::<Vec<_>>()),
        ];
        let compiled = compile(&kernel, Technique::swv(bits)).unwrap();
        let mut core = Core::new(&compiled.program, CoreConfig::default()).unwrap();
        for (name, values) in &inputs {
            let (addr, bytes) = compiled.encode_input(name, values);
            core.mem.write_slice(addr, &bytes).unwrap();
        }
        core.run(50_000_000).unwrap();
        let layout = compiled.layout("X");
        let bytes = core.mem.slice(compiled.addr("X"), layout.byte_size()).unwrap();
        let got: Vec<u32> = layout.decode(&bytes).iter().map(|&v| v as u32).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn compiled_execution_matches_interpreter(
        shape in arb_shape(),
        a in proptest::collection::vec(0i64..0x1_0000, N as usize..=N as usize),
        b in proptest::collection::vec(any::<u32>().prop_map(|v| v as i64), N as usize..=N as usize),
    ) {
        let kernel = build_kernel(&shape);
        kernel.validate().unwrap();
        let inputs = [("A".to_string(), a), ("B".to_string(), b)];

        // Oracle: the direct IR interpreter.
        let expected = interpret(&kernel, &inputs, &["X"]).unwrap();

        // Full pipeline: compile precise (hoisting + pointer induction
        // included) and run on the simulator.
        let compiled = compile(&kernel, Technique::Precise).unwrap();
        let mut core = Core::new(&compiled.program, CoreConfig::default()).unwrap();
        for (name, values) in &inputs {
            let (addr, bytes) = compiled.encode_input(name, values);
            core.mem.write_slice(addr, &bytes).unwrap();
        }
        core.run(50_000_000).unwrap();
        let layout = compiled.layout("X");
        let bytes = core.mem.slice(compiled.addr("X"), layout.byte_size()).unwrap();
        let got = layout.decode(&bytes);

        prop_assert_eq!(&got, &expected[0].1, "shape: {:?}", shape);
    }
}
