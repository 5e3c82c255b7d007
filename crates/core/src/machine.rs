//! The user-facing JavaFlow machine: load a program, deploy methods to the
//! DataFlow fabric, and execute them with real data against the GPP-backed
//! heap — the whole Figure 12 system in one handle.

use javaflow_bytecode::{MethodId, Program, Value};
use javaflow_fabric::{
    execute, load, BranchMode, ExecParams, ExecReport, FabricConfig, Gpp, LoadError, Outcome,
};
use javaflow_interp::{Interp, JvmError};

/// A JavaFlow machine instance: a DataFlow fabric plus its controlling GPP
/// and shared memory subsystem.
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    config: FabricConfig,
    gpp: Interp<'p>,
}

/// The result of running a method on the fabric.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// The returned value (if the method returns one).
    pub value: Option<Value>,
    /// Cycle-level execution report.
    pub report: ExecReport,
}

/// A machine-level failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum MachineError {
    /// The method could not be deployed to the fabric.
    Load(LoadError),
    /// Execution raised a JVM exception (delegated to the GPP).
    Exception(JvmError),
    /// The run exhausted its cycle budget.
    Timeout,
    /// The dataflow deadlocked (invalid program).
    Deadlock,
    /// No method with the requested name exists.
    UnknownMethod(String),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Load(e) => write!(fm, "load: {e}"),
            MachineError::Exception(e) => write!(fm, "exception: {e}"),
            MachineError::Timeout => write!(fm, "timeout"),
            MachineError::Deadlock => write!(fm, "dataflow deadlock"),
            MachineError::UnknownMethod(n) => write!(fm, "unknown method `{n}`"),
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Load(e) => Some(e),
            MachineError::Exception(e) => Some(e),
            _ => None,
        }
    }
}

impl<'p> Machine<'p> {
    /// Creates a machine over a program with the given fabric
    /// configuration. Heap and static state persist across runs.
    #[must_use]
    pub fn new(program: &'p Program, config: FabricConfig) -> Machine<'p> {
        Machine { program, config, gpp: Interp::new(program) }
    }

    /// The fabric configuration.
    #[must_use]
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Read access to the GPP.
    #[must_use]
    pub fn gpp(&self) -> &Interp<'p> {
        &self.gpp
    }

    /// Deploys `method` to the fabric and executes it with `args`,
    /// data-driven (branches evaluate real operands; memory and calls hit
    /// the shared GPP state).
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    pub fn run(&mut self, method: MethodId, args: &[Value]) -> Result<MachineRun, MachineError> {
        let m = self.program.method(method);
        let loaded = load(m, &self.config).map_err(MachineError::Load)?;
        let report = execute(
            &loaded,
            &self.config,
            ExecParams {
                mode: BranchMode::Data,
                gpp: Gpp::Interp(&mut self.gpp),
                args: args.to_vec(),
                ..ExecParams::default()
            },
        );
        match report.outcome.clone() {
            Outcome::Returned(value) => Ok(MachineRun { value, report }),
            Outcome::Exception(e) => Err(MachineError::Exception(e)),
            Outcome::Timeout => Err(MachineError::Timeout),
            Outcome::Deadlock => Err(MachineError::Deadlock),
        }
    }

    /// [`Machine::run`] by method name.
    ///
    /// # Errors
    ///
    /// See [`MachineError`].
    pub fn run_named(&mut self, name: &str, args: &[Value]) -> Result<MachineRun, MachineError> {
        let (id, _) = self
            .program
            .method_by_name(name)
            .ok_or_else(|| MachineError::UnknownMethod(name.to_string()))?;
        self.run(id, args)
    }

    /// Runs the same method on the GPP alone (interpreter), for
    /// fabric-vs-GPP comparisons. Shares the machine's heap state.
    ///
    /// # Errors
    ///
    /// Propagates interpreter exceptions.
    pub fn run_on_gpp(
        &mut self,
        method: MethodId,
        args: &[Value],
    ) -> Result<Option<Value>, MachineError> {
        self.gpp.run(method, args).map_err(MachineError::Exception)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javaflow_bytecode::asm::assemble;

    #[test]
    fn machine_runs_named_methods() {
        let p = assemble(
            ".method inc args=1 returns=true locals=1
               iload 0
               iconst_1
               iadd
               ireturn
             .end",
        )
        .unwrap();
        let mut m = Machine::new(&p, FabricConfig::compact2());
        let run = m.run_named("inc", &[Value::Int(41)]).unwrap();
        assert_eq!(run.value, Some(Value::Int(42)));
        assert!(run.report.mesh_cycles > 0);
        assert!(matches!(m.run_named("nope", &[]), Err(MachineError::UnknownMethod(_))));
    }

    #[test]
    fn heap_state_persists_across_runs() {
        let p = assemble(
            ".class Counter fields=0 statics=1
             .method bump args=0 returns=true locals=0
               getstatic Counter 0
               iconst_1
               iadd
               dup
               putstatic Counter 0
               ireturn
             .end",
        )
        .unwrap();
        let mut m = Machine::new(&p, FabricConfig::compact4());
        assert_eq!(m.run_named("bump", &[]).unwrap().value, Some(Value::Int(1)));
        assert_eq!(m.run_named("bump", &[]).unwrap().value, Some(Value::Int(2)));
        assert_eq!(
            m.run_on_gpp(p.method_by_name("bump").unwrap().0, &[]).unwrap(),
            Some(Value::Int(3))
        );
        assert_eq!(m.run_named("bump", &[]).unwrap().value, Some(Value::Int(4)));
    }
}
