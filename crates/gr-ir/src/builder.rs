//! Ergonomic construction of IR functions.

use crate::core::{BinOp, BlockId, Function, Instr, Pred, Terminator, Ty, ValueId};

/// A cursor appending instructions to the end of a block.
///
/// ```
/// use gd_ir::{Builder, Function, Pred, Ty};
///
/// let mut f = Function::new("is_zero", vec![Ty::I32], Ty::I32);
/// let entry = f.add_block("entry");
/// let (then_bb, else_bb) = {
///     let t = f.add_block("then");
///     let e = f.add_block("else");
///     (t, e)
/// };
/// let mut b = Builder::new(&mut f, entry);
/// let zero = b.const_i32(0);
/// let p0 = b.func().param(0);
/// let c = b.icmp(Pred::Eq, p0, zero);
/// b.cond_br(c, then_bb, else_bb);
/// let mut b = Builder::new(&mut f, then_bb);
/// let one = b.const_i32(1);
/// b.ret(Some(one));
/// let mut b = Builder::new(&mut f, else_bb);
/// let zero = b.const_i32(0);
/// b.ret(Some(zero));
/// assert_eq!(f.block_count(), 3);
/// ```
#[derive(Debug)]
pub struct Builder<'f> {
    func: &'f mut Function,
    block: BlockId,
}

impl<'f> Builder<'f> {
    /// Positions a builder at the end of `block`.
    pub fn new(func: &'f mut Function, block: BlockId) -> Builder<'f> {
        Builder { func, block }
    }

    /// The function under construction.
    pub fn func(&mut self) -> &mut Function {
        self.func
    }

    /// Moves the insertion point to another block.
    pub fn switch_to(&mut self, block: BlockId) {
        self.block = block;
    }

    /// Appends `instr` with result type `ty` and returns its value.
    pub fn insert(&mut self, instr: Instr, ty: Ty) -> ValueId {
        let id = self.func.create_instr(instr, ty);
        self.func.block_mut(self.block).instrs.push(id);
        id
    }

    /// An `i32` constant.
    pub fn const_i32(&mut self, value: i64) -> ValueId {
        self.func.const_int(Ty::I32, value)
    }

    /// Binary operation (result type = lhs type).
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.func.ty(lhs);
        self.insert(Instr::Bin { op, lhs, rhs }, ty)
    }

    /// `add`.
    pub fn add(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Add, lhs, rhs)
    }

    /// `sub`.
    pub fn sub(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Sub, lhs, rhs)
    }

    /// `xor`.
    pub fn xor(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Xor, lhs, rhs)
    }

    /// Bitwise complement.
    pub fn not(&mut self, arg: ValueId) -> ValueId {
        let ty = self.func.ty(arg);
        self.insert(Instr::Not { arg }, ty)
    }

    /// Comparison.
    pub fn icmp(&mut self, pred: Pred, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.insert(Instr::Icmp { pred, lhs, rhs }, Ty::I1)
    }

    /// Width cast.
    pub fn cast(&mut self, arg: ValueId, to: Ty) -> ValueId {
        self.insert(Instr::Cast { arg, to }, to)
    }

    /// Stack allocation.
    pub fn alloca(&mut self, ty: Ty) -> ValueId {
        self.insert(Instr::Alloca { ty }, Ty::Ptr)
    }

    /// Non-volatile load.
    pub fn load(&mut self, ptr: ValueId, ty: Ty) -> ValueId {
        self.insert(Instr::Load { ptr, ty, volatile: false }, ty)
    }

    /// Volatile load.
    pub fn load_volatile(&mut self, ptr: ValueId, ty: Ty) -> ValueId {
        self.insert(Instr::Load { ptr, ty, volatile: true }, ty)
    }

    /// Non-volatile store.
    pub fn store(&mut self, ptr: ValueId, value: ValueId) {
        self.insert(Instr::Store { ptr, value, volatile: false }, Ty::Void);
    }

    /// Volatile store.
    pub fn store_volatile(&mut self, ptr: ValueId, value: ValueId) {
        self.insert(Instr::Store { ptr, value, volatile: true }, Ty::Void);
    }

    /// Address of a global.
    pub fn global_addr(&mut self, name: &str) -> ValueId {
        self.insert(Instr::GlobalAddr { name: name.to_owned() }, Ty::Ptr)
    }

    /// Call; `ret_ty` must match the callee's signature.
    pub fn call(&mut self, callee: &str, args: Vec<ValueId>, ret_ty: Ty) -> ValueId {
        self.insert(Instr::Call { callee: callee.to_owned(), args }, ret_ty)
    }

    /// Phi node at the head of the current block.
    pub fn phi(&mut self, ty: Ty, incomings: Vec<(BlockId, ValueId)>) -> ValueId {
        let id = self.func.create_instr(Instr::Phi { incomings }, ty);
        self.func.block_mut(self.block).instrs.insert(0, id);
        id
    }

    /// Terminates with an unconditional branch.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(Terminator::Br { target });
    }

    /// Terminates with a conditional branch.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn cond_br(&mut self, cond: ValueId, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::CondBr { cond, then_bb, else_bb });
    }

    /// Terminates with a return.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn ret(&mut self, value: Option<ValueId>) {
        self.terminate(Terminator::Ret { value });
    }

    fn terminate(&mut self, term: Terminator) {
        let block = self.func.block_mut(self.block);
        assert!(block.term.is_none(), "block `{}` already terminated", block.name);
        block.term = Some(term);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_loop() {
        // while (*p != 0) {}  — the paper's guard shape.
        let mut f = Function::new("spin", vec![Ty::Ptr], Ty::Void);
        let entry = f.add_block("entry");
        let header = f.add_block("header");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let p = f.param(0);

        let mut b = Builder::new(&mut f, entry);
        b.br(header);
        b.switch_to(header);
        let v = b.load_volatile(p, Ty::I32);
        let zero = b.const_i32(0);
        let c = b.icmp(Pred::Ne, v, zero);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);

        assert_eq!(f.block_count(), 4);
        assert_eq!(f.block(header).instrs.len(), 2, "load + icmp (const is not an instr)");
        assert!(matches!(f.block(header).term, Some(Terminator::CondBr { .. })));
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_termination_panics() {
        let mut f = Function::new("f", vec![], Ty::Void);
        let bb = f.add_block("entry");
        let mut b = Builder::new(&mut f, bb);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    fn phi_goes_to_block_head() {
        let mut f = Function::new("f", vec![Ty::I32], Ty::I32);
        let bb = f.add_block("entry");
        let p = f.param(0);
        let mut b = Builder::new(&mut f, bb);
        let one = b.const_i32(1);
        let x = b.add(p, one);
        let phi = b.phi(Ty::I32, vec![(bb, x)]);
        assert_eq!(f.block(bb).instrs[0], phi);
        assert_eq!(f.block(bb).instrs.len(), 2);
    }
}
