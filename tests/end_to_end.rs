//! End-to-end integration: the whole benchmark suite runs on the
//! interpreter with correct results, hot kernels co-simulate on the fabric
//! in data mode against the interpreter golden model, and heavy drivers
//! execute fully on the machine.

use javaflow_bytecode::Value;
use javaflow_core::Machine;
use javaflow_fabric::{execute, load, BranchMode, ExecParams, FabricConfig, Gpp, Outcome};
use javaflow_interp::Interp;
use javaflow_workloads::{full_suite, scimark, SuiteKind};

#[test]
fn whole_suite_runs_on_the_interpreter() {
    for bench in full_suite() {
        bench.program.validate().unwrap_or_else(|e| panic!("{}: {e:?}", bench.name));
        let v = bench.run().unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(v.is_some(), "{} returned nothing", bench.name);
    }
}

#[test]
fn suite_correctness_invariants() {
    for bench in full_suite() {
        let v = bench.run().unwrap();
        match bench.name {
            // The compress drivers return the number of round-trip
            // mismatches: must be lossless.
            "compress" | "_201_compress" => assert_eq!(v, Some(Value::Int(0)), "{}", bench.name),
            // The FFT driver returns accumulated round-trip error.
            "scimark.fft" => {
                let err = v.unwrap().as_double().unwrap();
                assert!(err < 1e-6, "fft round-trip error {err}");
            }
            // The db driver returns sort violations.
            "_209_db" => assert_eq!(v, Some(Value::Int(0))),
            // Monte Carlo approximates π.
            "scimark.monte_carlo" => {
                let pi = v.unwrap().as_double().unwrap();
                assert!((pi - std::f64::consts::PI).abs() < 0.2, "π estimate {pi}");
            }
            _ => {}
        }
    }
}

#[test]
fn profiles_show_hot_method_dominance() {
    // Table 1's key finding: a small number of methods dominates.
    for bench in full_suite() {
        let (profiler, _) = bench.profile().unwrap();
        let top = javaflow_analysis::top_share(&profiler, 4);
        assert!(
            top > 0.3,
            "{}: top-4 methods only cover {:.0}% of dynamic instructions",
            bench.name,
            top * 100.0
        );
    }
}

#[test]
fn next_double_co_simulates_bit_exactly_on_all_configs() {
    let mut program = javaflow_bytecode::Program::new();
    let (_cls, make, next_double) = scimark::build_random(&mut program);
    let method = program.method(next_double).clone();

    // Golden sequence from the interpreter.
    let mut golden = Interp::new(&program);
    let r = golden.run(make, &[Value::Int(7)]).unwrap().unwrap();
    let expected: Vec<Value> =
        (0..5).map(|_| golden.run(next_double, &[r]).unwrap().unwrap()).collect();

    for config in FabricConfig::all_six() {
        let loaded = load(&method, &config).unwrap();
        let mut gpp = Interp::new(&program);
        let r = gpp.run(make, &[Value::Int(7)]).unwrap().unwrap();
        for (k, want) in expected.iter().enumerate() {
            let report = execute(
                &loaded,
                &config,
                ExecParams {
                    mode: BranchMode::Data,
                    gpp: Gpp::Interp(&mut gpp),
                    args: vec![r],
                    ..ExecParams::default()
                },
            );
            let Outcome::Returned(Some(got)) = report.outcome else {
                panic!("{} draw {k}: no return", config.name);
            };
            assert!(got.bits_eq(want), "{} draw {k}: fabric {got} != interp {want}", config.name);
        }
    }
}

#[test]
fn sha1_block_co_simulates_on_the_fabric() {
    // Run a SHA-1 block compression on the machine and on the GPP alone;
    // the state arrays must match word for word.
    let mut program = javaflow_bytecode::Program::new();
    let sha = javaflow_workloads::crypto::build_sha160(&mut program);
    let config = FabricConfig::compact2();

    let setup = |jvm: &mut Interp<'_>| -> (Value, Value) {
        let st = jvm.state.heap.alloc_array(javaflow_bytecode::ArrayKind::Int, 5).unwrap();
        for (i, v) in [0x6745_2301u32, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0]
            .into_iter()
            .enumerate()
        {
            jvm.state.heap.array_set(Some(st), i as i32, Value::Int(v as i32)).unwrap();
        }
        let w = jvm.state.heap.alloc_array(javaflow_bytecode::ArrayKind::Int, 80).unwrap();
        for i in 0..16 {
            jvm.state
                .heap
                .array_set(Some(w), i, Value::Int(i.wrapping_mul(0x3779_1237) ^ 5))
                .unwrap();
        }
        (Value::Ref(Some(st)), Value::Ref(Some(w)))
    };

    // GPP-only run.
    let mut gpp_only = Interp::new(&program);
    let (st_g, w_g) = setup(&mut gpp_only);
    gpp_only.run(sha, &[st_g, w_g]).unwrap();
    let expect: Vec<Value> = (0..5)
        .map(|i| gpp_only.state.heap.array_get(st_g.as_ref_handle().unwrap(), i).unwrap())
        .collect();

    // Fabric run.
    let method = program.method(sha).clone();
    let loaded = load(&method, &config).unwrap();
    let mut gpp = Interp::new(&program);
    let (st_f, w_f) = setup(&mut gpp);
    let report = execute(
        &loaded,
        &config,
        ExecParams {
            mode: BranchMode::Data,
            gpp: Gpp::Interp(&mut gpp),
            args: vec![st_f, w_f],
            max_mesh_cycles: 5_000_000,
        },
    );
    assert!(matches!(report.outcome, Outcome::Returned(None)), "{:?}", report.outcome);
    for (i, want) in expect.iter().enumerate() {
        let got = gpp.state.heap.array_get(st_f.as_ref_handle().unwrap(), i as i32).unwrap();
        assert!(got.bits_eq(want), "state[{i}]: fabric {got} != interp {want}");
    }
    // SHA-1 is ~1400 dynamic instructions of real work on the fabric.
    assert!(report.executed > 500, "only {} fired", report.executed);
}

#[test]
fn machine_runs_a_whole_benchmark_driver() {
    // The jess driver end-to-end on the machine (Figure 12's full system):
    // token-list construction, nested loops, and equals-call cascades.
    let bench = javaflow_workloads::misc98::jess_benchmark(14, 3);
    let gpp_result = bench.run().unwrap();
    let mut machine = Machine::new(&bench.program, FabricConfig::compact10());
    let run = machine.run_named("jess.driver", &bench.driver_args).unwrap();
    assert_eq!(run.value, gpp_result);
    assert_eq!(run.value, Some(Value::Int(12))); // 14 tokens, every 7th differs
}

#[test]
fn hot_methods_load_on_every_configuration() {
    for bench in full_suite() {
        for id in &bench.hot {
            let m = bench.program.method(*id);
            for config in FabricConfig::all_six() {
                load(m, &config).unwrap_or_else(|e| {
                    panic!("{}::{} fails to load on {}: {e}", bench.name, m.name, config.name)
                });
            }
        }
    }
}

#[test]
fn suite_matches_table_3_4_hot_sets() {
    // The hottest profiled method of each benchmark must be one of its
    // declared hot methods — the suite reproduces its own Tables 3/4.
    for bench in full_suite() {
        let (profiler, _) = bench.profile().unwrap();
        let ranked = profiler.ranked();
        let hottest_measured = ranked
            .iter()
            .map(|(id, _)| *id)
            .find(|id| *id != bench.driver)
            .expect("non-driver method executed");
        assert!(
            bench.hot.contains(&hottest_measured),
            "{}: hottest method {} not in declared hot set {:?}",
            bench.name,
            bench.program.method(hottest_measured).name,
            bench.hot_names()
        );
    }
}

#[test]
fn jvm98_and_jvm2008_both_represented() {
    let suite = full_suite();
    let n08 = suite.iter().filter(|b| b.suite == SuiteKind::Jvm2008).count();
    let n98 = suite.iter().filter(|b| b.suite == SuiteKind::Jvm98).count();
    assert_eq!(n08, 8);
    assert_eq!(n98, 6);
}
