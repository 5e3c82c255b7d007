//! Randomized property tests over generated programs (deterministic
//! seeded generation — the workspace builds offline, so these use the
//! in-repo [`javaflow_workloads::rng`] generator instead of proptest):
//!
//! * assembler/disassembler round-trips;
//! * resolver ≡ verifier on arbitrary structured methods;
//! * fabric data-mode execution ≡ interpreter on arbitrary *data-safe*
//!   integer programs (loops, branches, arithmetic), on every machine
//!   configuration.

use javaflow_bytecode::{asm, verify, Label, Method, MethodBuilder, Opcode, Program, Value};
use javaflow_fabric::{execute, load, resolve, BranchMode, ExecParams, FabricConfig, Gpp, Outcome};
use javaflow_interp::Interp;
use javaflow_workloads::rng::StdRng;

const CASES: u64 = 48;

/// A data-safe integer statement for generated programs.
#[derive(Debug, Clone)]
enum Stmt {
    /// `r_dst = r_a OP r_b` with a non-trapping operator.
    Bin { dst: u8, a: u8, b: u8, op: u8 },
    /// `r_dst = constant`.
    Set { dst: u8, value: i8 },
    /// `r += delta`.
    Inc { dst: u8, delta: i8 },
    /// `if (r_a cmp r_b) { then-stmts }`.
    If { a: u8, b: u8, cmp: u8, then: Vec<Stmt> },
    /// Bounded countdown loop over a fresh counter.
    Loop { times: u8, body: Vec<Stmt> },
}

const REGS: u16 = 4;

fn gen_stmt(rng: &mut StdRng, depth: u32) -> Stmt {
    // Leaves at depth 0; otherwise a 1-in-3 chance of a nested construct.
    if depth > 0 && rng.gen_bool(1.0 / 3.0) {
        if rng.gen_bool(0.5) {
            Stmt::If {
                a: rng.gen_range(0..4u8),
                b: rng.gen_range(0..4u8),
                cmp: rng.gen_range(0..4u8),
                then: gen_block(rng, depth - 1, 1..4),
            }
        } else {
            Stmt::Loop { times: rng.gen_range(1..5u8), body: gen_block(rng, depth - 1, 1..4) }
        }
    } else {
        match rng.gen_range(0..3u8) {
            0 => Stmt::Bin {
                dst: rng.gen_range(0..4u8),
                a: rng.gen_range(0..4u8),
                b: rng.gen_range(0..4u8),
                op: rng.gen_range(0..6u8),
            },
            1 => Stmt::Set { dst: rng.gen_range(0..4u8), value: rng.gen_range(-128..=127i8) },
            _ => Stmt::Inc { dst: rng.gen_range(0..4u8), delta: rng.gen_range(-128..=127i8) },
        }
    }
}

fn gen_block(rng: &mut StdRng, depth: u32, len: std::ops::Range<usize>) -> Vec<Stmt> {
    let n = rng.gen_range(len);
    (0..n).map(|_| gen_stmt(rng, depth)).collect()
}

/// Emits a statement list; returns the next free counter register.
fn emit(b: &mut MethodBuilder, stmts: &[Stmt], mut counter: u16) -> u16 {
    for s in stmts {
        match s {
            Stmt::Bin { dst, a, b: rb, op } => {
                b.iload(u16::from(*a));
                b.iload(u16::from(*rb));
                b.op(match op % 6 {
                    0 => Opcode::IAdd,
                    1 => Opcode::ISub,
                    2 => Opcode::IMul,
                    3 => Opcode::IAnd,
                    4 => Opcode::IOr,
                    _ => Opcode::IXor,
                });
                b.istore(u16::from(*dst));
            }
            Stmt::Set { dst, value } => {
                b.iconst(i32::from(*value));
                b.istore(u16::from(*dst));
            }
            Stmt::Inc { dst, delta } => {
                b.iinc(u16::from(*dst), i32::from(*delta));
            }
            Stmt::If { a, b: rb, cmp, then } => {
                b.iload(u16::from(*a));
                b.iload(u16::from(*rb));
                let skip = b.new_label();
                b.branch(
                    match cmp % 4 {
                        0 => Opcode::IfICmpEq,
                        1 => Opcode::IfICmpNe,
                        2 => Opcode::IfICmpLt,
                        _ => Opcode::IfICmpGe,
                    },
                    skip,
                );
                counter = emit(b, then, counter);
                b.bind(skip);
            }
            Stmt::Loop { times, body } => {
                let c = counter;
                counter += 1;
                b.iconst(i32::from(*times));
                b.istore(c);
                let top: Label = b.new_label();
                let exit: Label = b.new_label();
                b.bind(top);
                b.iload(c);
                b.branch(Opcode::IfLe, exit);
                counter = emit(b, body, counter);
                b.iinc(c, -1);
                b.branch(Opcode::Goto, top);
                b.bind(exit);
            }
        }
    }
    counter
}

fn build_method(stmts: &[Stmt]) -> Method {
    let mut b = MethodBuilder::new("prop.m", 2, true);
    // Initialize the non-argument working registers.
    for r in 2..REGS {
        b.iconst(i32::from(r as i16));
        b.istore(r);
    }
    emit(&mut b, stmts, REGS);
    // Return a digest of all working registers.
    b.iload(0);
    for r in 1..REGS {
        b.iload(r);
        b.op(Opcode::IXor);
    }
    b.op(Opcode::IReturn);
    b.finish().expect("generated program verifies")
}

#[test]
fn fabric_matches_interpreter_on_generated_programs() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5eed_0001 ^ case);
        let stmts = gen_block(&mut rng, 2, 1..6);
        let a = rng.gen_range(-128..=127i8);
        let bb = rng.gen_range(-128..=127i8);
        let method = build_method(&stmts);
        let program = Program::from(method.clone());
        let args = [Value::Int(i32::from(a)), Value::Int(i32::from(bb))];

        let mut interp = Interp::new(&program);
        let expect = interp.run(javaflow_bytecode::MethodId(0), &args).unwrap();

        for config in [FabricConfig::baseline(), FabricConfig::compact2(), FabricConfig::hetero2()]
        {
            let loaded = load(&method, &config).unwrap();
            let mut gpp = Interp::new(&program);
            let report = execute(
                &loaded,
                &config,
                ExecParams {
                    mode: BranchMode::Data,
                    gpp: Gpp::Interp(&mut gpp),
                    args: args.to_vec(),
                    max_mesh_cycles: 2_000_000,
                },
            );
            match &report.outcome {
                Outcome::Returned(got) => {
                    assert_eq!(got, &expect, "case {case}, {}", config.name);
                }
                other => panic!("case {case}, {}: {other:?}", config.name),
            }
        }
    }
}

#[test]
fn resolver_matches_verifier_on_generated_programs() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5eed_0002 ^ case);
        let stmts = gen_block(&mut rng, 3, 1..8);
        let method = build_method(&stmts);
        let v = verify(&method).unwrap();
        let r = resolve(&method).unwrap();
        let verifier_edges: Vec<(u32, u32, u16)> =
            v.edges.iter().map(|e| (e.producer, e.consumer, e.side)).collect();
        assert_eq!(r.edges(), verifier_edges, "case {case}");
        assert_eq!(r.stats.back_merges, 0, "case {case}");
    }
}

#[test]
fn assembler_round_trips_generated_programs() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5eed_0003 ^ case);
        let stmts = gen_block(&mut rng, 2, 1..6);
        let method = build_method(&stmts);
        let program = Program::from(method);
        let text = asm::disassemble(&program);
        let back = asm::assemble(&text).unwrap();
        assert_eq!(back.num_methods(), program.num_methods(), "case {case}");
        for ((_, x), (_, y)) in program.methods().zip(back.methods()) {
            assert_eq!(x, y, "case {case}");
        }
    }
}

#[test]
fn scripted_mode_always_terminates() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5eed_0004 ^ case);
        let stmts = gen_block(&mut rng, 2, 1..6);
        let bp1 = rng.gen::<bool>();
        // Scripted branch outcomes are data-independent; every generated
        // loop must still terminate by predictor schedule.
        let method = build_method(&stmts);
        let config = FabricConfig::compact2();
        let loaded = load(&method, &config).unwrap();
        let report = execute(
            &loaded,
            &config,
            ExecParams {
                mode: if bp1 { BranchMode::Bp1 } else { BranchMode::Bp2 },
                max_mesh_cycles: 2_000_000,
                ..ExecParams::default()
            },
        );
        assert!(
            matches!(report.outcome, Outcome::Returned(_)),
            "case {case}: {:?}",
            report.outcome
        );
    }
}
