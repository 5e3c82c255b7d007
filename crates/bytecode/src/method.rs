//! Methods, classes, and programs.
//!
//! A [`Method`] is the unit JavaFlow deploys to the DataFlow fabric: a
//! linear list of resolved instructions plus the compile-time-known maximum
//! register count (Section 3.6: "Java Byte Code programs have the maximum
//! number of local registers utilized and the maximum number of stack
//! elements defined at compile time").

use crate::{Insn, MethodId, Operand, Value};

/// A class definition: field layout for the interpreter's method area and
/// heap (Figure 10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Number of instance field slots on the heap.
    pub instance_fields: u16,
    /// Number of static field slots in the class (method) area.
    pub static_fields: u16,
}

/// A Java method: resolved linear ByteCode plus its frame requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    /// Method name (free-form; by convention `Class.method` style).
    pub name: String,
    /// Number of argument values (including the receiver for instance
    /// methods, which arrives in local register 0).
    pub num_args: u16,
    /// Whether the method returns a value.
    pub returns: bool,
    /// Maximum local-variable (register) count.
    pub max_locals: u16,
    /// The instruction stream; index = linear address.
    pub code: Vec<Insn>,
    /// The method's constant pool (already linked; `ldc` indexes here).
    pub cpool: Vec<Value>,
}

impl Method {
    /// Creates an empty method.
    #[must_use]
    pub fn new(name: impl Into<String>, num_args: u16, returns: bool) -> Method {
        Method {
            name: name.into(),
            num_args,
            returns,
            max_locals: num_args,
            code: Vec::new(),
            cpool: Vec::new(),
        }
    }

    /// Number of instructions (the method's static size).
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the method has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The instruction at a linear address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[must_use]
    pub fn insn(&self, addr: u32) -> &Insn {
        &self.code[addr as usize]
    }

    /// Iterates `(linear address, instruction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Insn)> {
        self.code.iter().enumerate().map(|(i, insn)| (i as u32, insn))
    }

    /// Whether the branch at `addr` (if any) jumps backwards (a loop edge).
    #[must_use]
    pub fn is_back_branch(&self, addr: u32) -> bool {
        self.insn(addr).branch_target().is_some_and(|t| t <= addr)
    }

    /// Structural validation: operand kinds, branch targets in range,
    /// constant-pool indices in range, register indices within
    /// `max_locals`, and a terminated instruction stream.
    ///
    /// # Errors
    ///
    /// Returns [`MethodError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), MethodError> {
        if self.code.is_empty() {
            return Err(MethodError::Empty);
        }
        if self.num_args > self.max_locals {
            return Err(MethodError::ArgsExceedLocals {
                num_args: self.num_args,
                max_locals: self.max_locals,
            });
        }
        let n = self.code.len() as u32;
        for (addr, insn) in self.iter() {
            insn.validate().map_err(|reason| MethodError::BadOperand { addr, reason })?;
            for t in insn.successors(addr) {
                if t >= n {
                    // Implicit fall-through past the last instruction is a
                    // termination problem; an explicit target beyond the
                    // method is a range problem.
                    if t == n && t == addr + 1 && insn.branch_target() != Some(t) {
                        return Err(MethodError::FallsOffEnd { addr });
                    }
                    return Err(MethodError::TargetOutOfRange { addr, target: t, len: n });
                }
            }
            match &insn.operand {
                Operand::Cp(i) if usize::from(*i) >= self.cpool.len() => {
                    return Err(MethodError::CpOutOfRange { addr, index: *i });
                }
                Operand::Local(r) if *r >= self.max_locals => {
                    return Err(MethodError::LocalOutOfRange { addr, local: *r });
                }
                Operand::Inc { local, .. } if *local >= self.max_locals => {
                    return Err(MethodError::LocalOutOfRange { addr, local: *local });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Structural validation error for a [`Method`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MethodError {
    /// The method has no instructions.
    Empty,
    /// More arguments than registers.
    ArgsExceedLocals {
        /// Declared argument count.
        num_args: u16,
        /// Declared register count.
        max_locals: u16,
    },
    /// An operand does not match its opcode.
    BadOperand {
        /// Offending linear address.
        addr: u32,
        /// Human-readable mismatch description.
        reason: String,
    },
    /// A branch target is outside the method.
    TargetOutOfRange {
        /// Branching address.
        addr: u32,
        /// Offending target.
        target: u32,
        /// Method length.
        len: u32,
    },
    /// A constant-pool index is out of range.
    CpOutOfRange {
        /// Offending address.
        addr: u32,
        /// Offending index.
        index: u16,
    },
    /// A register index exceeds `max_locals`.
    LocalOutOfRange {
        /// Offending address.
        addr: u32,
        /// Offending register.
        local: u16,
    },
    /// Control can run off the end of the code.
    FallsOffEnd {
        /// Address of the final instruction.
        addr: u32,
    },
}

impl std::fmt::Display for MethodError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodError::Empty => write!(fm, "method has no instructions"),
            MethodError::ArgsExceedLocals { num_args, max_locals } => {
                write!(fm, "{num_args} arguments exceed {max_locals} locals")
            }
            MethodError::BadOperand { addr, reason } => write!(fm, "at @{addr}: {reason}"),
            MethodError::TargetOutOfRange { addr, target, len } => {
                write!(fm, "at @{addr}: target @{target} outside method of {len} instructions")
            }
            MethodError::CpOutOfRange { addr, index } => {
                write!(fm, "at @{addr}: constant pool index #{index} out of range")
            }
            MethodError::LocalOutOfRange { addr, local } => {
                write!(fm, "at @{addr}: register {local} exceeds max_locals")
            }
            MethodError::FallsOffEnd { addr } => {
                write!(fm, "control falls off the end after @{addr}")
            }
        }
    }
}

impl std::error::Error for MethodError {}

/// A linked program: methods plus the class table they reference.
#[derive(Debug, Clone, Default)]
pub struct Program {
    methods: Vec<Method>,
    classes: Vec<ClassDef>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Program {
        Program::default()
    }

    /// Adds a method, returning its id.
    pub fn add_method(&mut self, method: Method) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(method);
        id
    }

    /// Adds a class, returning its id.
    pub fn add_class(&mut self, class: ClassDef) -> u16 {
        let id = self.classes.len() as u16;
        self.classes.push(class);
        id
    }

    /// The method with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    #[must_use]
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.0 as usize]
    }

    /// Mutable access to a method.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn method_mut(&mut self, id: MethodId) -> &mut Method {
        &mut self.methods[id.0 as usize]
    }

    /// Looks a method up by name.
    #[must_use]
    pub fn method_by_name(&self, name: &str) -> Option<(MethodId, &Method)> {
        self.methods
            .iter()
            .enumerate()
            .find(|(_, m)| m.name == name)
            .map(|(i, m)| (MethodId(i as u32), m))
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    #[must_use]
    pub fn class(&self, id: u16) -> &ClassDef {
        &self.classes[usize::from(id)]
    }

    /// All methods with their ids.
    pub fn methods(&self) -> impl Iterator<Item = (MethodId, &Method)> {
        self.methods.iter().enumerate().map(|(i, m)| (MethodId(i as u32), m))
    }

    /// All classes.
    #[must_use]
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// Number of methods.
    #[must_use]
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Validates every method, plus cross-references (call targets exist and
    /// agree on arity; field references name real classes and slots).
    ///
    /// # Errors
    ///
    /// Returns the offending method's id and error.
    pub fn validate(&self) -> Result<(), (MethodId, MethodError)> {
        for (id, m) in self.methods() {
            m.validate().map_err(|e| (id, e))?;
            for (addr, insn) in m.iter() {
                match &insn.operand {
                    Operand::Call(c) => {
                        let Some(callee) = self.methods.get(c.method.0 as usize) else {
                            return Err((
                                id,
                                MethodError::BadOperand {
                                    addr,
                                    reason: format!("call to unknown method {}", c.method),
                                },
                            ));
                        };
                        if u16::from(c.argc) != callee.num_args || c.returns != callee.returns {
                            return Err((
                                id,
                                MethodError::BadOperand {
                                    addr,
                                    reason: format!(
                                        "call signature ({} args, ret={}) disagrees with callee \
                                         `{}` ({} args, ret={})",
                                        c.argc,
                                        c.returns,
                                        callee.name,
                                        callee.num_args,
                                        callee.returns
                                    ),
                                },
                            ));
                        }
                    }
                    Operand::Field(fr) if usize::from(fr.class) >= self.classes.len() => {
                        return Err((
                            id,
                            MethodError::BadOperand {
                                addr,
                                reason: format!("field reference to unknown class {}", fr.class),
                            },
                        ));
                    }
                    Operand::ClassId(c) | Operand::Dims { class: c, .. }
                        if usize::from(*c) >= self.classes.len() =>
                    {
                        return Err((
                            id,
                            MethodError::BadOperand {
                                addr,
                                reason: format!("reference to unknown class {c}"),
                            },
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// Convenience for building a single-method program (tests, examples).
impl From<Method> for Program {
    fn from(method: Method) -> Program {
        let mut p = Program::new();
        p.add_method(method);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CallRef, Opcode};

    fn ret_method() -> Method {
        let mut m = Method::new("t", 0, false);
        m.code.push(Insn::simple(Opcode::ReturnVoid));
        m
    }

    #[test]
    fn empty_method_invalid() {
        let m = Method::new("t", 0, false);
        assert_eq!(m.validate(), Err(MethodError::Empty));
    }

    #[test]
    fn minimal_method_valid() {
        assert_eq!(ret_method().validate(), Ok(()));
    }

    #[test]
    fn branch_out_of_range_detected() {
        let mut m = Method::new("t", 0, false);
        m.code.push(Insn::new(Opcode::Goto, Operand::Target(5)));
        m.code.push(Insn::simple(Opcode::ReturnVoid));
        assert!(matches!(m.validate(), Err(MethodError::TargetOutOfRange { target: 5, .. })));
    }

    #[test]
    fn falling_off_end_detected() {
        let mut m = Method::new("t", 0, false);
        m.code.push(Insn::simple(Opcode::IConst0));
        m.code.push(Insn::new(Opcode::IStore, Operand::Local(0)));
        m.max_locals = 1;
        assert!(matches!(m.validate(), Err(MethodError::FallsOffEnd { .. })));
    }

    #[test]
    fn local_out_of_range_detected() {
        let mut m = Method::new("t", 0, false);
        m.max_locals = 1;
        m.code.push(Insn::new(Opcode::ILoad, Operand::Local(3)));
        m.code.push(Insn::simple(Opcode::IReturn));
        assert!(matches!(m.validate(), Err(MethodError::LocalOutOfRange { local: 3, .. })));
    }

    #[test]
    fn back_branch_detection() {
        let mut m = Method::new("t", 0, false);
        m.code.push(Insn::simple(Opcode::IConst0));
        m.code.push(Insn::new(Opcode::Goto, Operand::Target(0)));
        assert!(!m.is_back_branch(0));
        assert!(m.is_back_branch(1));
    }

    #[test]
    fn program_call_signature_checked() {
        let mut p = Program::new();
        let callee = p.add_method(ret_method());
        let mut caller = Method::new("caller", 0, false);
        caller.code.push(Insn::new(
            Opcode::InvokeStatic,
            Operand::Call(CallRef { method: callee, argc: 2, returns: false }),
        ));
        caller.code.push(Insn::simple(Opcode::ReturnVoid));
        let id = p.add_method(caller);
        let err = p.validate().unwrap_err();
        assert_eq!(err.0, id);
    }

    #[test]
    fn lookup_by_name() {
        let mut p = Program::new();
        let id = p.add_method(ret_method());
        assert_eq!(p.method_by_name("t").map(|(i, _)| i), Some(id));
        assert!(p.method_by_name("nope").is_none());
    }
}
