//! Small emission helpers shared by the kernel builders.

use javaflow_bytecode::{MethodBuilder, Opcode};

/// A loop bound or initial value: a constant or a register.
#[derive(Debug, Clone, Copy)]
pub enum Src {
    /// Integer constant.
    Const(i32),
    /// Integer register.
    Reg(u16),
}

/// Pushes a [`Src`] onto the stack.
pub fn push(b: &mut MethodBuilder, s: Src) {
    match s {
        Src::Const(v) => {
            b.iconst(v);
        }
        Src::Reg(r) => {
            b.iload(r);
        }
    }
}

/// Emits `for (i = start; i < end; i += step) { body }` (javac shape:
/// condition at the top, `iinc` + back-edge `goto`).
pub fn for_up(
    b: &mut MethodBuilder,
    i: u16,
    start: Src,
    end: Src,
    step: i32,
    body: impl FnOnce(&mut MethodBuilder),
) {
    push(b, start);
    b.istore(i);
    let top = b.new_label();
    let exit = b.new_label();
    b.bind(top);
    b.iload(i);
    push(b, end);
    b.branch(Opcode::IfICmpGe, exit);
    body(b);
    b.iinc(i, step);
    b.branch(Opcode::Goto, top);
    b.bind(exit);
}

/// Emits `while (count-- > 0) { body }` using a countdown register, the
/// shape javac emits for simple repeat loops.
pub fn countdown(b: &mut MethodBuilder, counter: u16, body: impl FnOnce(&mut MethodBuilder)) {
    let top = b.new_label();
    let exit = b.new_label();
    b.bind(top);
    b.iload(counter);
    b.branch(Opcode::IfLe, exit);
    body(b);
    b.iinc(counter, -1);
    b.branch(Opcode::Goto, top);
    b.bind(exit);
}

/// Emits `|double|` of the double on top of the stack.
pub fn dabs(b: &mut MethodBuilder) {
    b.op(Opcode::Dup);
    b.dconst(0.0);
    b.op(Opcode::DCmpG);
    let skip = b.new_label();
    b.branch(Opcode::IfGe, skip);
    b.op(Opcode::DNeg);
    b.bind(skip);
}

/// Loads `array[index]` as a double: `aload a; iload i; daload`.
pub fn daload(b: &mut MethodBuilder, arr: u16, idx: u16) {
    b.aload(arr);
    b.iload(idx);
    b.op(Opcode::DALoad);
}

/// Stores the double on top of the stack into `array[index]`. The value
/// must be pushed *after* calling this function's prologue, so this helper
/// instead takes a closure that pushes the value.
pub fn dastore(b: &mut MethodBuilder, arr: u16, idx: u16, value: impl FnOnce(&mut MethodBuilder)) {
    b.aload(arr);
    b.iload(idx);
    value(b);
    b.op(Opcode::DAStore);
}

#[cfg(test)]
mod tests {
    use super::*;
    use javaflow_bytecode::{Program, Value};
    use javaflow_interp::Interp;

    #[test]
    fn for_up_counts() {
        // sum 0..n
        let mut b = MethodBuilder::new("t", 1, true);
        b.iconst(0);
        b.istore(2);
        for_up(&mut b, 1, Src::Const(0), Src::Reg(0), 1, |b| {
            b.iload(2).iload(1).op(Opcode::IAdd).istore(2);
        });
        b.iload(2);
        b.op(Opcode::IReturn);
        let m = b.finish().unwrap();
        let p = Program::from(m);
        let mut i = Interp::new(&p);
        let r = i.run(javaflow_bytecode::MethodId(0), &[Value::Int(5)]).unwrap();
        assert_eq!(r, Some(Value::Int(10))); // 0+1+2+3+4
    }

    #[test]
    fn countdown_runs_n_times() {
        let mut b = MethodBuilder::new("t", 1, true);
        b.iconst(0);
        b.istore(1);
        // copy arg into a scratch counter
        b.iload(0);
        b.istore(2);
        countdown(&mut b, 2, |b| {
            b.iinc(1, 3);
        });
        b.iload(1);
        b.op(Opcode::IReturn);
        let m = b.finish().unwrap();
        let p = Program::from(m);
        let mut i = Interp::new(&p);
        let r = i.run(javaflow_bytecode::MethodId(0), &[Value::Int(4)]).unwrap();
        assert_eq!(r, Some(Value::Int(12)));
    }

    #[test]
    fn dabs_negates_negative() {
        let mut b = MethodBuilder::new("t", 1, true);
        b.dload(0);
        dabs(&mut b);
        b.op(Opcode::DReturn);
        let m = b.finish().unwrap();
        let p = Program::from(m);
        let mut i = Interp::new(&p);
        let r = i.run(javaflow_bytecode::MethodId(0), &[Value::Double(-2.5)]).unwrap();
        assert_eq!(r, Some(Value::Double(2.5)));
        let mut i = Interp::new(&p);
        let r = i.run(javaflow_bytecode::MethodId(0), &[Value::Double(1.5)]).unwrap();
        assert_eq!(r, Some(Value::Double(1.5)));
    }
}
