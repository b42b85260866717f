//! # wn-compiler — kernel IR, anytime transformation passes, and codegen
//!
//! The What's Next paper takes a hardware/software co-design approach: the
//! programmer annotates approximable inputs and outputs with `#pragma asp`
//! / `#pragma asv` directives (Listings 1 and 3), and a compiler pass at
//! the IR level (Algorithm 1) performs **loop fission**, replacing
//! long-latency operations with their anytime subword equivalents and
//! inserting **skim points** after each subword stage.
//!
//! This crate is that compiler:
//!
//! * [`ir`] — a small structured kernel IR: constant-bound counted loops,
//!   array loads/stores, arithmetic expressions, and per-array
//!   approximability annotations ([`ir::Approx`]) mirroring the paper's
//!   pragmas.
//! * [`passes`] — the anytime transformations:
//!   [`passes::swp`] (anytime subword pipelining, §III-A) and
//!   [`passes::swv`] (anytime subword vectorization, §III-B), both
//!   implemented as loop fission over the annotated loop nest, most
//!   significant subword first, with skim points between stages.
//! * [`layout`] — the data-layout contract between device and host:
//!   row-major, **subword-major** (Fig. 7) and component-major layouts
//!   with host-side encode/decode.
//! * [`codegen`] — lowering to WN-RISC ([`wn_isa::Program`]), with
//!   strength-reduced constant multiplies so that only *data* multiplies
//!   use the iterative multiplier.
//! * [`compile`](crate::compile()) — the driver: takes a kernel and a
//!   [`Technique`] and produces a [`CompiledKernel`].
//!
//! ```
//! use wn_compiler::ir::{ArrayBuilder, Expr, KernelIr, Stmt};
//! use wn_compiler::{compile, Technique};
//!
//! // X[i] = A[i] * F[i] over 8 elements, A approximable (Listing 1).
//! let kernel = KernelIr::new("saxpy-ish")
//!     .array(ArrayBuilder::input("A", 8).elem16().asp_input())
//!     .array(ArrayBuilder::input("F", 8).elem16())
//!     .array(ArrayBuilder::output("X", 8).elem32().asp_output())
//!     .body(vec![Stmt::for_loop(
//!         "i",
//!         0,
//!         8,
//!         vec![Stmt::accum_store(
//!             "X",
//!             Expr::var("i"),
//!             Expr::load("A", Expr::var("i")) * Expr::load("F", Expr::var("i")),
//!         )],
//!     )]);
//! let precise = compile(&kernel, Technique::Precise)?;
//! let anytime = compile(&kernel, Technique::swp(8))?;
//! assert!(anytime.program.instrs.len() > precise.program.instrs.len());
//! # Ok::<(), wn_compiler::CompileError>(())
//! ```

pub mod codegen;
pub mod compile;
pub mod error;
pub mod interp;
pub mod ir;
pub mod layout;
pub mod passes;
pub mod technique;

pub use compile::{compile, compile_with, CompileOptions, CompiledKernel, TaskSpan};
pub use error::CompileError;
pub use layout::{ArrayLayout, ElemType};
pub use technique::Technique;
