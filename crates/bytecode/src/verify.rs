//! ByteCode verification and static dataflow analysis.
//!
//! The JVM requires that "every instruction must have the same stack
//! configuration from any entry point" (Section 3.6, Figure 9). The verifier
//! enforces this by abstract interpretation over the control-flow graph,
//! tracking for every stack slot both its [`crate::DataType`] and the set of
//! *producer* linear addresses that may have pushed it.
//!
//! The producer sets are exactly the dataflow arcs the fabric's distributed
//! address-resolution protocol discovers at load time (Section 6.2), so the
//! verifier doubles as the golden model for
//! `javaflow_fabric::resolve` — a consumer side with more than one producer
//! is a *DataFlow merge*, and a producer whose linear address is greater
//! than its consumer's would be a *back merge* (never produced by a valid
//! Java compiler; Table 7 reports zero).

use std::collections::BTreeSet;

use crate::{DataType, Insn, InstructionGroup, Method, Opcode, Operand};

/// One dataflow arc: `producer` pushes the value that `consumer` pops as
/// operand number `side` (1-based, 1 = deepest operand, matching the
/// dissertation's "side" numbering in Figure 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DfEdge {
    /// Linear address of the producing instruction.
    pub producer: u32,
    /// Linear address of the consuming instruction.
    pub consumer: u32,
    /// Which operand side of the consumer this arc feeds (1-based).
    pub side: u16,
}

impl DfEdge {
    /// Whether the producer sits *below* the consumer in linear order — a
    /// back merge, which valid javac output never creates.
    #[must_use]
    pub fn is_back(&self) -> bool {
        self.producer > self.consumer
    }
}

/// Result of verifying a method.
#[derive(Debug, Clone)]
pub struct VerifiedMethod {
    /// Maximum operand-stack depth over all reachable instructions.
    pub max_stack: u16,
    /// Stack depth on entry to each instruction (`u16::MAX` = unreachable).
    pub depth_in: Vec<u16>,
    /// All dataflow arcs, sorted.
    pub edges: Vec<DfEdge>,
    /// Number of consumer sides fed by more than one producer (merges).
    pub merges: usize,
    /// Number of back-merge arcs (expected to be zero for javac output).
    pub back_merges: usize,
    /// Number of reachable instructions.
    pub reachable: usize,
}

impl VerifiedMethod {
    /// Per-producer fanout: how many `(consumer, side)` sinks each pushing
    /// instruction feeds. Only producers with at least one sink appear.
    #[must_use]
    pub fn fanouts(&self) -> Vec<(u32, usize)> {
        let mut v: Vec<(u32, usize)> = Vec::new();
        for e in &self.edges {
            match v.last_mut() {
                Some((p, n)) if *p == e.producer => *n += 1,
                _ => v.push((e.producer, 1)),
            }
        }
        v
    }
}

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// Structural validation failed first.
    Structure(crate::MethodError),
    /// An instruction popped from an empty stack.
    Underflow {
        /// Offending address.
        addr: u32,
    },
    /// Two paths reach an instruction with different stack depths
    /// (the Figure 9 "invalid stack example").
    ShapeMismatch {
        /// Join-point address.
        addr: u32,
        /// Depth along the first path.
        first: u16,
        /// Depth along the conflicting path.
        second: u16,
    },
    /// Two paths reach an instruction with different types in a slot.
    TypeMismatch {
        /// Join-point address.
        addr: u32,
        /// Stack slot index (0 = bottom).
        slot: u16,
        /// Type along the first path.
        first: DataType,
        /// Type along the conflicting path.
        second: DataType,
    },
    /// An instruction received an operand of the wrong type.
    BadOperandType {
        /// Offending address.
        addr: u32,
        /// 1-based operand side.
        side: u16,
        /// Expected type.
        expected: DataType,
        /// Found type.
        found: DataType,
    },
    /// The method's declared `max_stack` … exceeded? JavaFlow computes it,
    /// so this variant flags internal inconsistency only.
    StackOverflow {
        /// Offending address.
        addr: u32,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Structure(e) => write!(fm, "structure: {e}"),
            VerifyError::Underflow { addr } => write!(fm, "stack underflow at @{addr}"),
            VerifyError::ShapeMismatch { addr, first, second } => {
                write!(fm, "stack shape mismatch at @{addr}: depth {first} vs {second}")
            }
            VerifyError::TypeMismatch { addr, slot, first, second } => {
                write!(fm, "stack type mismatch at @{addr} slot {slot}: {first:?} vs {second:?}")
            }
            VerifyError::BadOperandType { addr, side, expected, found } => write!(
                fm,
                "operand type error at @{addr} side {side}: expected {expected:?}, found {found:?}"
            ),
            VerifyError::StackOverflow { addr } => write!(fm, "stack overflow at @{addr}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<crate::MethodError> for VerifyError {
    fn from(e: crate::MethodError) -> Self {
        VerifyError::Structure(e)
    }
}

/// Verifier type lattice: a known network type or `Unknown` (field loads
/// and call returns, whose types the post-resolution IR does not carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VType {
    Known(DataType),
    Unknown,
}

impl VType {
    fn merge(self, other: VType) -> Result<VType, (DataType, DataType)> {
        match (self, other) {
            (VType::Known(a), VType::Known(b)) if a == b => Ok(self),
            (VType::Known(a), VType::Known(b)) => Err((a, b)),
            _ => Ok(VType::Unknown),
        }
    }
}

/// Abstract stack slot: type plus producer set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    ty: VType,
    producers: BTreeSet<u32>,
}

type AbsStack = Vec<Slot>;

/// The result type an opcode pushes, inferred from the JVM's mnemonic type
/// prefixes (`i`/`l`/`f`/`d`/`a`) with explicit exceptions.
fn push_types(insn: &Insn) -> Vec<DataType> {
    use DataType as T;
    use Opcode as O;
    let n = insn.pushes();
    if n == 0 {
        return Vec::new();
    }
    let one = |t: T| vec![t];
    match insn.op {
        O::AConstNull
        | O::ALoad
        | O::ALoad0
        | O::ALoad1
        | O::ALoad2
        | O::ALoad3
        | O::New
        | O::NewArray
        | O::ANewArray
        | O::CheckCast
        | O::MultiANewArray => one(T::Reference),
        O::Jsr | O::JsrW => one(T::ReturnAddress),
        O::LConst0
        | O::LConst1
        | O::LLoad
        | O::LLoad0
        | O::LLoad1
        | O::LLoad2
        | O::LLoad3
        | O::LALoad
        | O::LAdd
        | O::LSub
        | O::LMul
        | O::LDiv
        | O::LRem
        | O::LNeg
        | O::LShl
        | O::LShr
        | O::LUShr
        | O::LAnd
        | O::LOr
        | O::LXor
        | O::I2L
        | O::F2L
        | O::D2L => one(T::Long),
        O::FConst0
        | O::FConst1
        | O::FConst2
        | O::FLoad
        | O::FLoad0
        | O::FLoad1
        | O::FLoad2
        | O::FLoad3
        | O::FALoad
        | O::FAdd
        | O::FSub
        | O::FMul
        | O::FDiv
        | O::FRem
        | O::FNeg
        | O::I2F
        | O::L2F
        | O::D2F => one(T::Float),
        O::DConst0
        | O::DConst1
        | O::DLoad
        | O::DLoad0
        | O::DLoad1
        | O::DLoad2
        | O::DLoad3
        | O::DALoad
        | O::DAdd
        | O::DSub
        | O::DMul
        | O::DDiv
        | O::DRem
        | O::DNeg
        | O::I2D
        | O::L2D
        | O::F2D => one(T::Double),
        // Everything else that pushes a single value pushes an int-family
        // value (comparisons, int arithmetic, conversions to int, loads).
        _ if n == 1 && !matches!(insn.op.group(), InstructionGroup::Call) => one(T::Int),
        _ => Vec::new(), // calls, dup family: handled by the caller
    }
}

/// Expected operand types for opcodes where JavaFlow's strong typing can be
/// checked without full signature information. `None` entries are unchecked.
fn expected_pop_types(insn: &Insn) -> Vec<Option<DataType>> {
    use DataType as T;
    use Opcode as O;
    let pops = insn.pops() as usize;
    let mut v = vec![None; pops];
    match insn.op {
        // Array loads: arrayref, index.
        O::IALoad
        | O::LALoad
        | O::FALoad
        | O::DALoad
        | O::AALoad
        | O::BALoad
        | O::CALoad
        | O::SALoad => {
            v[0] = Some(T::Reference);
            v[1] = Some(T::Int);
        }
        // Array stores: arrayref, index, value (value checked loosely).
        O::IAStore | O::BAStore | O::CAStore | O::SAStore => {
            v = vec![Some(T::Reference), Some(T::Int), Some(T::Int)];
        }
        O::LAStore => v = vec![Some(T::Reference), Some(T::Int), Some(T::Long)],
        O::FAStore => v = vec![Some(T::Reference), Some(T::Int), Some(T::Float)],
        O::DAStore => v = vec![Some(T::Reference), Some(T::Int), Some(T::Double)],
        O::AAStore => v = vec![Some(T::Reference), Some(T::Int), Some(T::Reference)],
        // Int conditionals.
        O::IfEq | O::IfNe | O::IfLt | O::IfGe | O::IfGt | O::IfLe => v[0] = Some(T::Int),
        O::IfICmpEq | O::IfICmpNe | O::IfICmpLt | O::IfICmpGe | O::IfICmpGt | O::IfICmpLe => {
            v = vec![Some(T::Int), Some(T::Int)];
        }
        O::IfACmpEq | O::IfACmpNe => v = vec![Some(T::Reference), Some(T::Reference)],
        O::IfNull
        | O::IfNonNull
        | O::AThrow
        | O::ArrayLength
        | O::MonitorEnter
        | O::MonitorExit => v[0] = Some(T::Reference),
        O::GetField => v[0] = Some(T::Reference),
        O::PutField => v[0] = Some(T::Reference),
        // Typed returns.
        O::IReturn => v[0] = Some(T::Int),
        O::LReturn => v[0] = Some(T::Long),
        O::FReturn => v[0] = Some(T::Float),
        O::DReturn => v[0] = Some(T::Double),
        O::AReturn => v[0] = Some(T::Reference),
        // Typed register writes.
        O::IStore | O::IStore0 | O::IStore1 | O::IStore2 | O::IStore3 => v[0] = Some(T::Int),
        O::LStore | O::LStore0 | O::LStore1 | O::LStore2 | O::LStore3 => v[0] = Some(T::Long),
        O::FStore | O::FStore0 | O::FStore1 | O::FStore2 | O::FStore3 => v[0] = Some(T::Float),
        O::DStore | O::DStore0 | O::DStore1 | O::DStore2 | O::DStore3 => v[0] = Some(T::Double),
        O::TableSwitch | O::LookupSwitch | O::NewArray | O::ANewArray => v[0] = Some(T::Int),
        _ => {}
    }
    v
}

/// Verifies a method and computes its static dataflow structure.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
///
/// # Examples
///
/// ```
/// use javaflow_bytecode::{verify, Insn, Method, Opcode, Operand};
///
/// let mut m = Method::new("add", 2, true);
/// m.code = vec![
///     Insn::new(Opcode::ILoad, Operand::Local(0)),
///     Insn::new(Opcode::ILoad, Operand::Local(1)),
///     Insn::simple(Opcode::IAdd),
///     Insn::simple(Opcode::IReturn),
/// ];
/// let v = verify(&m).unwrap();
/// assert_eq!(v.max_stack, 2);
/// assert_eq!(v.edges.len(), 3); // two loads feed iadd; iadd feeds ireturn
/// assert_eq!(v.back_merges, 0);
/// ```
pub fn verify(method: &Method) -> Result<VerifiedMethod, VerifyError> {
    method.validate()?;
    let n = method.code.len();
    let mut state_in: Vec<Option<AbsStack>> = vec![None; n];
    let mut worklist: Vec<u32> = vec![0];
    state_in[0] = Some(Vec::new());
    let mut edges: BTreeSet<DfEdge> = BTreeSet::new();
    let mut max_stack: u16 = 0;

    // For `jsr`/`ret` support we treat `ret` as returning to every
    // `jsr`+1 site; methods in this repository do not use subroutines, but
    // the verifier stays total over the ISA.
    let jsr_returns: Vec<u32> = method
        .iter()
        .filter(|(_, i)| matches!(i.op, Opcode::Jsr | Opcode::JsrW))
        .map(|(a, _)| a + 1)
        .filter(|a| (*a as usize) < n)
        .collect();

    while let Some(addr) = worklist.pop() {
        let insn = method.insn(addr);
        let mut stack = state_in[addr as usize].clone().expect("scheduled with state");
        max_stack = max_stack.max(stack.len() as u16);

        // Pop operands, recording dataflow arcs. Side 1 is the deepest
        // operand (first pushed), matching Figure 22's side numbering.
        let pops = insn.pops() as usize;
        if stack.len() < pops {
            return Err(VerifyError::Underflow { addr });
        }
        let expect = expected_pop_types(insn);
        let operands: Vec<Slot> = stack.split_off(stack.len() - pops);
        for (k, slot) in operands.iter().enumerate() {
            let side = (k + 1) as u16;
            if let Some(Some(exp)) = expect.get(k) {
                if let VType::Known(found) = slot.ty {
                    if found != *exp {
                        return Err(VerifyError::BadOperandType {
                            addr,
                            side,
                            expected: *exp,
                            found,
                        });
                    }
                }
            }
            for &p in &slot.producers {
                edges.insert(DfEdge { producer: p, consumer: addr, side });
            }
        }

        // Push results.
        let n_push = insn.pushes() as usize;
        if n_push > 0 {
            let tys: Vec<VType> = push_types(insn).into_iter().map(VType::Known).collect();
            let dup_types: Vec<VType> = match insn.op {
                // Stack shuffles reproduce the *types* of their inputs; as
                // dataflow nodes they are still single producers.
                Opcode::Dup => vec![operands[0].ty; 2],
                Opcode::DupX1 => {
                    vec![operands[1].ty, operands[0].ty, operands[1].ty]
                }
                Opcode::DupX2 => {
                    vec![operands[2].ty, operands[0].ty, operands[1].ty, operands[2].ty]
                }
                Opcode::Dup2 => {
                    vec![operands[0].ty, operands[1].ty, operands[0].ty, operands[1].ty]
                }
                Opcode::Dup2X1 => vec![
                    operands[1].ty,
                    operands[2].ty,
                    operands[0].ty,
                    operands[1].ty,
                    operands[2].ty,
                ],
                Opcode::Dup2X2 => vec![
                    operands[2].ty,
                    operands[3].ty,
                    operands[0].ty,
                    operands[1].ty,
                    operands[2].ty,
                    operands[3].ty,
                ],
                Opcode::Swap => vec![operands[1].ty, operands[0].ty],
                Opcode::Ldc | Opcode::LdcW | Opcode::Ldc2W => {
                    let ty = match &insn.operand {
                        Operand::Cp(i) => method.cpool[usize::from(*i)].data_type(),
                        _ => DataType::Int,
                    };
                    vec![VType::Known(ty)]
                }
                // Types the post-resolution IR cannot know statically:
                // field loads, reference-array loads, and call returns.
                Opcode::GetField | Opcode::GetStatic | Opcode::AALoad => {
                    vec![VType::Unknown; n_push]
                }
                _ if insn.group() == InstructionGroup::Call => {
                    vec![VType::Unknown; n_push]
                }
                _ => tys,
            };
            debug_assert_eq!(dup_types.len(), n_push, "{} push type arity", insn.op);
            for ty in dup_types {
                stack.push(Slot { ty, producers: BTreeSet::from([addr]) });
            }
        }
        max_stack = max_stack.max(stack.len() as u16);

        // Propagate to successors, merging producer sets and checking the
        // Figure 9 shape invariant.
        let succs: Vec<u32> = if matches!(insn.op, Opcode::Ret) {
            jsr_returns.clone()
        } else {
            insn.successors(addr)
        };
        for s in succs {
            match &mut state_in[s as usize] {
                slot @ None => {
                    *slot = Some(stack.clone());
                    worklist.push(s);
                }
                Some(prev) => {
                    if prev.len() != stack.len() {
                        return Err(VerifyError::ShapeMismatch {
                            addr: s,
                            first: prev.len() as u16,
                            second: stack.len() as u16,
                        });
                    }
                    let mut changed = false;
                    for (i, (a, b)) in prev.iter_mut().zip(stack.iter()).enumerate() {
                        match a.ty.merge(b.ty) {
                            Ok(m) => {
                                if a.ty != m {
                                    a.ty = m;
                                    changed = true;
                                }
                            }
                            Err((first, second)) => {
                                return Err(VerifyError::TypeMismatch {
                                    addr: s,
                                    slot: i as u16,
                                    first,
                                    second,
                                });
                            }
                        }
                        for &p in &b.producers {
                            changed |= a.producers.insert(p);
                        }
                    }
                    if changed {
                        worklist.push(s);
                    }
                }
            }
        }
    }

    let depth_in: Vec<u16> =
        state_in.iter().map(|s| s.as_ref().map_or(u16::MAX, |st| st.len() as u16)).collect();
    let reachable = state_in.iter().filter(|s| s.is_some()).count();
    let edges: Vec<DfEdge> = edges.into_iter().collect();

    // A merge is a (consumer, side) pair with more than one producer.
    let mut by_sink: std::collections::BTreeMap<(u32, u16), usize> =
        std::collections::BTreeMap::new();
    for e in &edges {
        *by_sink.entry((e.consumer, e.side)).or_insert(0) += 1;
    }
    let merges = by_sink.values().filter(|&&c| c > 1).count();
    let back_merges = edges.iter().filter(|e| e.is_back()).count();

    Ok(VerifiedMethod { max_stack, depth_in, edges, merges, back_merges, reachable })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Insn, Method, Opcode, Operand};

    fn m(code: Vec<Insn>, args: u16, returns: bool, locals: u16) -> Method {
        let mut m = Method::new("t", args, returns);
        m.max_locals = locals.max(args);
        m.code = code;
        m
    }

    #[test]
    fn straight_line_edges() {
        // Figure 21's example: three loads, two adds, a store, return.
        let meth = m(
            vec![
                Insn::new(Opcode::ILoad, Operand::Local(1)),
                Insn::new(Opcode::ILoad, Operand::Local(2)),
                Insn::new(Opcode::ILoad, Operand::Local(3)),
                Insn::simple(Opcode::IAdd),
                Insn::new(Opcode::IStore, Operand::Local(4)),
                Insn::simple(Opcode::ReturnVoid),
            ],
            0,
            false,
            5,
        );
        let v = verify(&meth).unwrap();
        // iadd consumes loads @1 (side 1) and @2 (side 2)?? No: it consumes
        // the *top two*: loads @1 and @2 feed... stack is [l0,l1,l2]; iadd
        // pops l1 (side 1) and l2 (side 2); istore pops the add result; the
        // deep load @0 is never consumed before return — like Figure 21,
        // where instruction #0's push resolves to the *second* add. Here
        // there is no second add, so load @0 has no consumer.
        assert!(v.edges.contains(&DfEdge { producer: 1, consumer: 3, side: 1 }));
        assert!(v.edges.contains(&DfEdge { producer: 2, consumer: 3, side: 2 }));
        assert!(v.edges.contains(&DfEdge { producer: 3, consumer: 4, side: 1 }));
        assert_eq!(v.max_stack, 3);
        assert_eq!(v.merges, 0);
        assert_eq!(v.back_merges, 0);
    }

    #[test]
    fn dataflow_merge_detected() {
        // if (a) push 1 else push 2; consume at join → a merge with two
        // producers on one side (the Figure 22 pattern).
        let meth = m(
            vec![
                Insn::new(Opcode::ILoad, Operand::Local(0)), // 0
                Insn::new(Opcode::IfEq, Operand::Target(4)), // 1
                Insn::simple(Opcode::IConst1),               // 2
                Insn::new(Opcode::Goto, Operand::Target(5)), // 3
                Insn::simple(Opcode::IConst2),               // 4
                Insn::simple(Opcode::IReturn),               // 5
            ],
            1,
            true,
            1,
        );
        let v = verify(&meth).unwrap();
        assert_eq!(v.merges, 1);
        assert!(v.edges.contains(&DfEdge { producer: 2, consumer: 5, side: 1 }));
        assert!(v.edges.contains(&DfEdge { producer: 4, consumer: 5, side: 1 }));
        assert_eq!(v.back_merges, 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        // Figure 9's invalid example: one path pushes, the other does not.
        let meth = m(
            vec![
                Insn::new(Opcode::ILoad, Operand::Local(0)), // 0
                Insn::new(Opcode::IfEq, Operand::Target(3)), // 1
                Insn::simple(Opcode::IConst1),               // 2  (+1 depth)
                Insn::simple(Opcode::ReturnVoid),            // 3  join: 0 vs 1
            ],
            1,
            false,
            1,
        );
        assert!(matches!(verify(&meth), Err(VerifyError::ShapeMismatch { addr: 3, .. })));
    }

    #[test]
    fn type_mismatch_rejected() {
        let meth = m(
            vec![
                Insn::new(Opcode::ILoad, Operand::Local(0)), // 0
                Insn::new(Opcode::IfEq, Operand::Target(4)), // 1
                Insn::simple(Opcode::IConst1),               // 2 int
                Insn::new(Opcode::Goto, Operand::Target(5)), // 3
                Insn::simple(Opcode::FConst1),               // 4 float
                Insn::simple(Opcode::Pop),                   // 5 join
                Insn::simple(Opcode::ReturnVoid),
            ],
            1,
            false,
            1,
        );
        assert!(matches!(verify(&meth), Err(VerifyError::TypeMismatch { addr: 5, .. })));
    }

    #[test]
    fn underflow_rejected() {
        let meth =
            m(vec![Insn::simple(Opcode::IAdd), Insn::simple(Opcode::ReturnVoid)], 0, false, 0);
        assert!(matches!(verify(&meth), Err(VerifyError::Underflow { addr: 0 })));
    }

    #[test]
    fn operand_type_checked() {
        let meth = m(
            vec![
                Insn::simple(Opcode::FConst1),
                Insn::new(Opcode::IfEq, Operand::Target(2)), // ifeq on a float
                Insn::simple(Opcode::ReturnVoid),
            ],
            0,
            false,
            0,
        );
        assert!(matches!(verify(&meth), Err(VerifyError::BadOperandType { .. })));
    }

    #[test]
    fn loop_with_register_carried_state_has_no_back_merge() {
        // i = 10; while (i != 0) i--;  — state crosses the back edge in a
        // register (iinc), so the dataflow graph has no back arcs.
        let meth = m(
            vec![
                Insn::new(Opcode::BiPush, Operand::Imm(10)),  // 0
                Insn::new(Opcode::IStore, Operand::Local(0)), // 1
                Insn::new(Opcode::ILoad, Operand::Local(0)),  // 2 loop head
                Insn::new(Opcode::IfEq, Operand::Target(6)),  // 3
                Insn::new(Opcode::IInc, Operand::Inc { local: 0, delta: -1 }), // 4
                Insn::new(Opcode::Goto, Operand::Target(2)),  // 5 back edge
                Insn::simple(Opcode::ReturnVoid),             // 6
            ],
            0,
            false,
            1,
        );
        let v = verify(&meth).unwrap();
        assert_eq!(v.back_merges, 0);
        assert_eq!(v.reachable, 7);
    }

    #[test]
    fn dup_produces_two_sinks_from_one_producer() {
        let meth = m(
            vec![
                Insn::simple(Opcode::IConst3), // 0
                Insn::simple(Opcode::Dup),     // 1
                Insn::simple(Opcode::IMul),    // 2
                Insn::simple(Opcode::IReturn), // 3
            ],
            0,
            true,
            0,
        );
        let v = verify(&meth).unwrap();
        // iconst_3 → dup (side 1); dup → imul sides 1 and 2 (fanout 2).
        let fan: Vec<(u32, usize)> = v.fanouts();
        assert!(fan.contains(&(1, 2)), "dup should feed two sides: {fan:?}");
    }

    #[test]
    fn unreachable_code_tolerated() {
        let meth = m(
            vec![
                Insn::simple(Opcode::ReturnVoid),
                Insn::simple(Opcode::IAdd), // dead
                Insn::simple(Opcode::ReturnVoid),
            ],
            0,
            false,
            0,
        );
        let v = verify(&meth).unwrap();
        assert_eq!(v.reachable, 1);
        assert_eq!(v.depth_in[1], u16::MAX);
    }
}
