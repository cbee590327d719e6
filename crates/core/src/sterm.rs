//! The compiled λS term IR: the flat, index-resolved [`SCode`] block.
//!
//! [`Term`] is the paper-facing λS grammar — its `Coerce` nodes carry
//! [`SpaceCoercion`](crate::coercion::SpaceCoercion) trees and its
//! binders carry [`Type`](bc_syntax::Type) trees. That
//! is the right exchange format, but it makes every *evaluation* of a
//! coercion node pay an O(size) hash walk to re-intern the same tree
//! into the arena, and every cloned annotation an allocation.
//!
//! [`SCode`] is the form a compiled program is stored and executed in:
//! one immutable node array per program, with coercions as `Copy`
//! [`CoercionId`]s and type annotations as `Copy` [`TypeId`]s, minted
//! once by [`CompileCtx::compile`]. Children are `u32` offsets into the
//! array, variables are de Bruijn indices, operators are fixed-arity
//! nodes, and binder names live in a side table, so [`SCode::decode`]
//! rebuilds the tree [`Term`] exactly. A machine running on a block
//! borrows it: control is an index and a variable is an indexed lookup
//! — no spine is cloned and no name is compared at run time. A block is
//! at most three heap allocations whatever the program's size.
//!
//! Lowering also closure-converts the block for flat-closure machines.
//! Each function body runs in an *activation*: slot 0 holds the
//! function itself, slot 1 its parameter, and each `let` in the body
//! the next slot; a program's top level is an activation with no
//! function, whose `let`s start at slot 0. Every [`Node::Var`] records
//! its slot next to its de Bruijn index. A variable bound by an
//! enclosing function is *captured*: its slot has the [`CAPTURED`] bit
//! set and names a position in the closure's capture list, which the
//! [`Node::Lam`]/[`Node::Fix`] node keeps in the operand table as the
//! slots to copy from the enclosing activation ([`SCode::captures`]).
//! A function captures exactly the variables its body mentions, so a
//! closure holds only what it can reach.
//!
//! Lowering is a straight structural walk and [`SCode::decode`]
//! inverts it, by property test. Compiling is idempotent in the
//! arenas: compiling the same term twice yields equal code with
//! identical ids (hash-consing canonicity, end to end).
//!
//! ```
//! use bc_core::{CompileCtx, SpaceCoercion, Term};
//! use bc_syntax::{BaseType, Type};
//!
//! let m = Term::lam("x", Type::INT, Term::var("x"))
//!     .app(Term::int(1).coerce(SpaceCoercion::id_base(BaseType::Int)));
//! let mut ctx = CompileCtx::new();
//! let code = ctx.compile(&m);
//! assert_eq!(code.decode(&ctx.arena, &ctx.types), m);
//! // Each coercion is one node of the block, however large its tree.
//! assert_eq!(code.size() + m.coercion_size(), m.size());
//! ```

use std::rc::Rc;

use bc_syntax::{Constant, Label, Name, Op, TypeArena, TypeId};

use crate::arena::{CoercionArena, CoercionId};
use crate::term::Term;

/// One node of an [`SCode`] block. Children are offsets into the same
/// block; names are offsets into its name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// A constant `k`.
    Const(Constant),
    /// A bound variable.
    Var {
        /// Its de Bruijn index: `0` is the innermost binder in scope. A
        /// `fix` binds two variables, the parameter (innermost) and the
        /// function itself.
        index: u32,
        /// Its slot in the enclosing activation, or, with the
        /// [`CAPTURED`] bit set, its position in the enclosing
        /// function's capture list (see the [module docs](self)).
        slot: u32,
    },
    /// A variable bound nowhere in the block (open terms only — a
    /// closed program never contains one); the operand is its name.
    Free(u32),
    /// `λx:A. N`.
    Lam {
        /// The binder's name.
        name: u32,
        /// The parameter type.
        ty: TypeId,
        /// The body.
        body: u32,
        /// The capture list's offset in the operand table, or
        /// [`NO_CAPTURES`] (see [`SCode::captures`]).
        caps: u32,
    },
    /// `fix f (x:A):B. N`.
    Fix {
        /// The function's name; the parameter's is the next entry of
        /// the name table.
        fun: u32,
        /// The parameter type `A`.
        dom: TypeId,
        /// The result type `B`.
        cod: TypeId,
        /// The body.
        body: u32,
        /// The capture list's offset in the operand table, or
        /// [`NO_CAPTURES`] (see [`SCode::captures`]).
        caps: u32,
    },
    /// `L M`.
    App(u32, u32),
    /// A unary operator application.
    Op1(Op, u32),
    /// A binary operator application.
    Op2(Op, u32, u32),
    /// An operator applied to any other number of operands (ill-typed
    /// terms only): the operands are `len` offsets starting at `start`
    /// in the block's operand table.
    OpN {
        /// The operator.
        op: Op,
        /// The first operand's position in the operand table.
        start: u32,
        /// The number of operands.
        len: u32,
    },
    /// `M⟨s⟩`.
    Coerce(u32, CoercionId),
    /// `blame p` at a type.
    Blame(Label, TypeId),
    /// `if L then M else N`.
    If(u32, u32, u32),
    /// `let x = M in N`.
    Let {
        /// The binder's name.
        name: u32,
        /// The bound term `M`.
        bound: u32,
        /// The body `N`, in which `x` is index 0.
        body: u32,
    },
}

/// The bit of a [`Node::Var`] slot that marks a captured variable; the
/// other bits are its position in the function's capture list.
pub const CAPTURED: u32 = 1 << 31;

/// The `caps` of a [`Node::Lam`] or [`Node::Fix`] that captures
/// nothing.
pub const NO_CAPTURES: u32 = u32::MAX;

// A node stays three words: a `fix` implies its parameter's name, which
// leaves room for its capture list.
const _: () = assert!(std::mem::size_of::<Node>() == 24);

#[derive(Debug, PartialEq)]
struct Block {
    nodes: Box<[Node]>,
    names: Box<[Name]>,
    operands: Box<[u32]>,
    root: u32,
}

/// A compiled λS program as one immutable, index-resolved node array
/// (see the [module docs](self)). Cloning shares the block.
///
/// Its ids are only meaningful together with the arenas it was
/// lowered into.
#[derive(Debug, Clone, PartialEq)]
pub struct SCode(Rc<Block>);

impl SCode {
    /// Rebuilds the tree term, binder and variable names included, by
    /// resolving its handles through the arenas it was lowered into
    /// (the inverse of [`CompileCtx::compile`]).
    pub fn decode(&self, arena: &CoercionArena, types: &TypeArena) -> Term {
        let outer = |_| unreachable!("a block resolves every bound variable");
        self.decode_open(self.root(), &[], arena, types, &outer)
    }

    /// Rebuilds the tree term at `at` with the `binders` (name-table
    /// offsets, outermost first) open around it: a variable they do not
    /// bind reads as `outer` of its slot in the activation `at` runs in
    /// (see [`SCode::captured_from`]). This is how a run reads code in
    /// an activation back into the term it stands for.
    pub(crate) fn decode_open(
        &self,
        at: u32,
        binders: &[u32],
        arena: &CoercionArena,
        types: &TypeArena,
        outer: &dyn Fn(u32) -> Term,
    ) -> Term {
        let decoder = Decoder {
            code: self,
            arena,
            types,
        };
        decoder.at(at, &mut binders.to_vec(), outer)
    }

    /// The offset of the program's root node.
    pub fn root(&self) -> u32 {
        self.0.root
    }

    /// The node at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not an offset into this block.
    #[inline]
    pub fn node(&self, at: u32) -> Node {
        self.0.nodes[at as usize]
    }

    /// All nodes of the block, indexable by the offsets they hold.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.0.nodes
    }

    /// The name-table entry `at`.
    pub fn name(&self, at: u32) -> &Name {
        &self.0.names[at as usize]
    }

    /// The operand offsets of an [`Node::OpN`] node.
    pub fn operands(&self, start: u32, len: u32) -> &[u32] {
        &self.0.operands[start as usize..(start + len) as usize]
    }

    /// The slots a [`Node::Lam`] or [`Node::Fix`] with capture list
    /// `caps` copies from the enclosing activation into a closure, in
    /// capture-list order; empty for [`NO_CAPTURES`].
    #[inline]
    pub fn captures(&self, caps: u32) -> &[u32] {
        if caps == NO_CAPTURES {
            return &[];
        }
        let len = self.0.operands[caps as usize];
        self.operands(caps + 1, len)
    }

    /// The slot, in the activation around a [`Node::Lam`] or
    /// [`Node::Fix`] with capture list `caps`, of the variable its body
    /// reads from the captured `slot`.
    #[inline]
    pub(crate) fn captured_from(&self, caps: u32, slot: u32) -> u32 {
        debug_assert!(slot & CAPTURED != 0, "slot {slot} is not a capture");
        self.captures(caps)[(slot & !CAPTURED) as usize]
    }

    /// The number of syntax nodes, each coercion counting as one: the
    /// decoded term's [`Term::size`] less its [`Term::coercion_size`].
    pub fn size(&self) -> usize {
        self.0.nodes.len()
    }

    /// The number of `Coerce` nodes — the boundary crossings a single
    /// pass over the program hits at most once each.
    pub fn coercion_nodes(&self) -> usize {
        self.0
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Coerce(_, _)))
            .count()
    }

    /// The heap bytes the block owns: its node array, name table and
    /// operand table (with the capture lists), plus the shared header
    /// (name strings are shared with the source term and not counted).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Block>()
            + 2 * std::mem::size_of::<usize>()
            + std::mem::size_of_val(&*self.0.nodes)
            + std::mem::size_of_val(&*self.0.names)
            + std::mem::size_of_val(&*self.0.operands)
    }

    /// Renders the program in the paper grammar by resolving its
    /// handles through the arenas.
    pub fn display(&self, arena: &CoercionArena, types: &TypeArena) -> String {
        self.decode(arena, types).to_string()
    }
}

/// The walk behind [`SCode::decode`]: a block and the arenas that
/// resolve its handles.
struct Decoder<'a> {
    code: &'a SCode,
    arena: &'a CoercionArena,
    types: &'a TypeArena,
}

impl Decoder<'_> {
    fn at(&self, at: u32, scope: &mut Vec<u32>, outer: &dyn Fn(u32) -> Term) -> Term {
        let code = self.code;
        match code.node(at) {
            Node::Const(k) => Term::Const(k),
            Node::Var { index: i, slot } => match scope.len().checked_sub(1 + i as usize) {
                Some(j) => Term::Var(code.name(scope[j]).clone()),
                None => outer(slot),
            },
            Node::Free(x) => Term::Var(code.name(x).clone()),
            Node::Lam {
                name,
                ty,
                body,
                caps,
            } => Term::Lam(
                code.name(name).clone(),
                self.types.resolve(ty),
                self.under(&[name], body, scope, &|slot| {
                    outer(code.captured_from(caps, slot))
                }),
            ),
            Node::Fix {
                fun,
                dom,
                cod,
                body,
                caps,
            } => Term::Fix(
                code.name(fun).clone(),
                code.name(fun + 1).clone(),
                self.types.resolve(dom),
                self.types.resolve(cod),
                self.under(&[fun, fun + 1], body, scope, &|slot| {
                    outer(code.captured_from(caps, slot))
                }),
            ),
            Node::App(l, m) => Term::App(
                self.under(&[], l, scope, outer),
                self.under(&[], m, scope, outer),
            ),
            Node::Op1(op, a) => Term::Op(op, vec![self.at(a, scope, outer)]),
            Node::Op2(op, a, b) => {
                Term::Op(op, vec![self.at(a, scope, outer), self.at(b, scope, outer)])
            }
            Node::OpN { op, start, len } => Term::Op(
                op,
                code.operands(start, len)
                    .iter()
                    .map(|&a| self.at(a, scope, outer))
                    .collect(),
            ),
            Node::Coerce(m, s) => {
                Term::Coerce(self.under(&[], m, scope, outer), self.arena.resolve(s))
            }
            Node::Blame(p, ty) => Term::Blame(p, self.types.resolve(ty)),
            Node::If(c, t, e) => Term::If(
                self.under(&[], c, scope, outer),
                self.under(&[], t, scope, outer),
                self.under(&[], e, scope, outer),
            ),
            Node::Let { name, bound, body } => Term::Let(
                code.name(name).clone(),
                self.under(&[], bound, scope, outer),
                self.under(&[name], body, scope, outer),
            ),
        }
    }

    fn under(
        &self,
        binders: &[u32],
        body: u32,
        scope: &mut Vec<u32>,
        outer: &dyn Fn(u32) -> Term,
    ) -> Rc<Term> {
        scope.extend_from_slice(binders);
        let t = self.at(body, scope, outer);
        scope.truncate(scope.len() - binders.len());
        Rc::new(t)
    }
}

/// Emits an [`SCode`] block bottom-up: children first, each call
/// returning the offset of the node it pushed. Variables are resolved
/// against the binders opened with [`CodeBuilder::bind`] or
/// [`CodeBuilder::open_fn`] and not yet closed, and get their
/// activation slots and the functions' capture lists as they go (see
/// the [module docs](self)).
#[derive(Debug, Default)]
pub struct CodeBuilder {
    nodes: Vec<Node>,
    names: Vec<Name>,
    operands: Vec<u32>,
    scope: Vec<Binder>,
    /// The number of open functions.
    depth: u32,
    /// The capture lists of the open functions, interleaved.
    captures: Vec<Capture>,
}

/// An open binder: its name, its activation slot, and the depth of the
/// function it belongs to.
#[derive(Debug, Clone, Copy)]
struct Binder {
    name: u32,
    slot: u32,
    depth: u32,
}

/// One entry of an open function's capture list: the function's depth,
/// the binder's position in the scope, and the slot to copy from the
/// enclosing activation.
#[derive(Debug, Clone, Copy)]
struct Capture {
    depth: u32,
    binder: u32,
    src: u32,
}

impl CodeBuilder {
    /// An empty builder.
    pub fn new() -> CodeBuilder {
        CodeBuilder {
            nodes: Vec::with_capacity(32),
            names: Vec::with_capacity(4),
            ..CodeBuilder::default()
        }
    }

    /// Appends a node and returns its offset.
    pub fn push(&mut self, node: Node) -> u32 {
        let at = u32::try_from(self.nodes.len()).expect("code blocks hold fewer than 2^32 nodes");
        self.nodes.push(node);
        at
    }

    fn intern_name(&mut self, x: &Name) -> u32 {
        let at = u32::try_from(self.names.len()).expect("fewer than 2^32 names");
        self.names.push(x.clone());
        at
    }

    fn open(&mut self, x: &Name, slot: u32) -> u32 {
        let name = self.intern_name(x);
        self.scope.push(Binder {
            name,
            slot,
            depth: self.depth,
        });
        name
    }

    /// Appends a variable occurrence, resolved to the innermost open
    /// binder of that name (or [`Node::Free`] if there is none). A
    /// binder of an enclosing function is captured by every function
    /// between it and the occurrence.
    pub fn var(&mut self, x: &Name) -> u32 {
        let names = &self.names;
        let Some(at) = self
            .scope
            .iter()
            .rposition(|b| names[b.name as usize] == *x)
        else {
            let name = self.intern_name(x);
            return self.push(Node::Free(name));
        };
        let binder = self.scope[at];
        let mut slot = binder.slot;
        for depth in binder.depth + 1..=self.depth {
            slot = self.capture(depth, at as u32, slot);
        }
        let index = (self.scope.len() - 1 - at) as u32;
        self.push(Node::Var { index, slot })
    }

    /// The captured slot through which the function at `depth` reads
    /// the binder at scope position `binder`, which the enclosing
    /// activation holds at `src`.
    fn capture(&mut self, depth: u32, binder: u32, src: u32) -> u32 {
        let mut i = 0;
        for c in &self.captures {
            if c.depth == depth {
                if c.binder == binder {
                    return CAPTURED | i;
                }
                i += 1;
            }
        }
        self.captures.push(Capture { depth, binder, src });
        CAPTURED | i
    }

    /// Opens a `let` binder in the current activation: records its
    /// name and brings it into scope for the nodes pushed until the
    /// matching [`CodeBuilder::unbind`]. Returns the name-table offset
    /// for the binding node.
    pub fn bind(&mut self, x: &Name) -> u32 {
        let slot = match self.scope.last() {
            Some(b) if b.depth == self.depth => b.slot + 1,
            _ => 0,
        };
        self.open(x, slot)
    }

    /// Closes the `count` innermost `let` binders.
    pub fn unbind(&mut self, count: usize) {
        self.scope.truncate(self.scope.len() - count);
    }

    /// Opens a function's activation and its binders: a `fix`'s own
    /// name `fun` in slot 0 (a `λ` leaves slot 0 unnamed) and `param`
    /// in slot 1. Returns the name-table offset of the first binder,
    /// which [`CodeBuilder::close_lam`] or [`CodeBuilder::close_fix`]
    /// takes once the body is pushed.
    pub fn open_fn(&mut self, fun: Option<&Name>, param: &Name) -> u32 {
        self.depth += 1;
        let fun = fun.map(|f| self.open(f, 0));
        let param = self.open(param, 1);
        fun.unwrap_or(param)
    }

    /// Closes the innermost function, a `λ`, and appends its node.
    pub fn close_lam(&mut self, name: u32, ty: TypeId, body: u32) -> u32 {
        let caps = self.close_fn();
        self.push(Node::Lam {
            name,
            ty,
            body,
            caps,
        })
    }

    /// Closes the innermost function, a `fix`, and appends its node.
    pub fn close_fix(&mut self, fun: u32, dom: TypeId, cod: TypeId, body: u32) -> u32 {
        let caps = self.close_fn();
        self.push(Node::Fix {
            fun,
            dom,
            cod,
            body,
            caps,
        })
    }

    /// Closes the innermost function's scope and stores its capture
    /// list, returning the node's `caps`.
    fn close_fn(&mut self) -> u32 {
        let depth = self.depth;
        assert!(depth > 0, "unbalanced CodeBuilder::open_fn");
        let open = self.scope.partition_point(|b| b.depth < depth);
        self.scope.truncate(open);
        self.depth -= 1;
        let mine = |c: &&Capture| c.depth == depth;
        let len = self.captures.iter().filter(mine).count() as u32;
        if len == 0 {
            return NO_CAPTURES;
        }
        let start = self.operands.len() as u32;
        self.operands.push(len);
        let srcs = self.captures.iter().filter(mine).map(|c| c.src);
        self.operands.extend(srcs);
        self.captures.retain(|c| c.depth != depth);
        start
    }

    /// Appends an operator application over already-pushed operands.
    pub fn op(&mut self, op: Op, args: &[u32]) -> u32 {
        match *args {
            [a] => self.push(Node::Op1(op, a)),
            [a, b] => self.push(Node::Op2(op, a, b)),
            _ => {
                let start = self.operands.len() as u32;
                self.operands.extend_from_slice(args);
                self.push(Node::OpN {
                    op,
                    start,
                    len: args.len() as u32,
                })
            }
        }
    }

    /// Seals the block with `root` as the program's entry node.
    ///
    /// # Panics
    ///
    /// Panics if a binder is still open.
    pub fn finish(self, root: u32) -> SCode {
        assert!(
            self.scope.is_empty() && self.depth == 0,
            "unbalanced CodeBuilder::bind"
        );
        SCode(Rc::new(Block {
            nodes: self.nodes.into_boxed_slice(),
            names: self.names.into_boxed_slice(),
            operands: self.operands.into_boxed_slice(),
            root,
        }))
    }
}

/// A coercion arena, type arena, and compose cache bundled together —
/// everything a compiled program needs to evaluate. The one-stop state
/// for callers that would otherwise thread three `&mut`s.
///
/// A context is not `Clone`: the cache's ids belong to this arena, and
/// a copy of the pair would be a second id-space that the cache's
/// generation guard rejects.
///
/// ```compile_fail
/// let ctx = bc_core::CompileCtx::new();
/// let _copy = ctx.clone();
/// ```
#[derive(Debug, Default)]
pub struct CompileCtx {
    /// The coercion interner.
    pub arena: CoercionArena,
    /// The memoized composition table over `arena`'s ids.
    pub cache: crate::arena::ComposeCache,
    /// The type interner.
    pub types: TypeArena,
}

impl CompileCtx {
    /// An empty context.
    pub fn new() -> CompileCtx {
        CompileCtx::default()
    }

    /// Lowers a term into this context's arenas, as the executable
    /// [`SCode`] block.
    ///
    /// Each distinct coercion is hash-walked once *at compile time*, so
    /// the block evaluates with no interning at all. A binder's types
    /// are interned before its body, a coercion before its subterm.
    pub fn compile(&mut self, term: &Term) -> SCode {
        lower(
            term,
            self,
            |cx, ty| cx.types.intern(ty),
            |cx, s| cx.arena.intern(s),
        )
    }
}

/// Lowers a term of any calculus, tree or compiled, into an [`SCode`]
/// block: the one walk behind [`CompileCtx::compile`] and the compiled
/// translations of λB and λC into λS. `ty` gives a type annotation's
/// id and `cast` a cast's coercion id, both in the context `cx`; a
/// binder's types are mapped before its body, a cast before its
/// subterm.
pub fn lower<K, T, C: ?Sized>(
    term: &bc_syntax::term::Term<K, T>,
    cx: &mut C,
    ty: impl Fn(&mut C, &T) -> TypeId,
    cast: impl Fn(&mut C, &K) -> CoercionId,
) -> SCode {
    let mut lower = Lower {
        b: CodeBuilder::new(),
        cx,
        ty,
        cast,
    };
    let root = lower.go(term);
    lower.b.finish(root)
}

/// The state of [`lower`]'s walk.
struct Lower<'a, C: ?Sized, FT, FK> {
    b: CodeBuilder,
    cx: &'a mut C,
    ty: FT,
    cast: FK,
}

impl<C: ?Sized, FT, FK> Lower<'_, C, FT, FK> {
    fn go<K, T>(&mut self, term: &bc_syntax::term::Term<K, T>) -> u32
    where
        FT: Fn(&mut C, &T) -> TypeId,
        FK: Fn(&mut C, &K) -> CoercionId,
    {
        use bc_syntax::term::Term;
        match term {
            Term::Const(k) => self.b.push(Node::Const(*k)),
            Term::Var(x) => self.b.var(x),
            Term::Op(op, args) => {
                // Fixed-arity operands need no operand buffer.
                let mut pair = [0; 2];
                if args.len() <= pair.len() {
                    for (slot, a) in pair.iter_mut().zip(args) {
                        *slot = self.go(a);
                    }
                    self.b.op(*op, &pair[..args.len()])
                } else {
                    let ids: Vec<u32> = args.iter().map(|a| self.go(a)).collect();
                    self.b.op(*op, &ids)
                }
            }
            Term::Lam(x, ty, body) => {
                let ty = (self.ty)(self.cx, ty);
                let name = self.b.open_fn(None, x);
                let body = self.go(body);
                self.b.close_lam(name, ty, body)
            }
            Term::Fix(f, x, dom, cod, body) => {
                let (dom, cod) = ((self.ty)(self.cx, dom), (self.ty)(self.cx, cod));
                let fun = self.b.open_fn(Some(f), x);
                let body = self.go(body);
                self.b.close_fix(fun, dom, cod, body)
            }
            Term::App(l, m) => {
                let l = self.go(l);
                let m = self.go(m);
                self.b.push(Node::App(l, m))
            }
            Term::Coerce(m, k) => {
                let s = (self.cast)(self.cx, k);
                let m = self.go(m);
                self.b.push(Node::Coerce(m, s))
            }
            Term::Blame(p, ty) => {
                let ty = (self.ty)(self.cx, ty);
                self.b.push(Node::Blame(*p, ty))
            }
            Term::If(c, t, e) => {
                let c = self.go(c);
                let t = self.go(t);
                let e = self.go(e);
                self.b.push(Node::If(c, t, e))
            }
            Term::Let(x, m, n) => {
                let bound = self.go(m);
                let name = self.b.bind(x);
                let body = self.go(n);
                self.b.unbind(1);
                self.b.push(Node::Let { name, bound, body })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coercion::{GroundCoercion, Intermediate, SpaceCoercion};
    use bc_syntax::{BaseType, Ground, Type};

    fn sample() -> Term {
        let gi = Ground::Base(BaseType::Int);
        let inj = SpaceCoercion::inj(GroundCoercion::IdBase(BaseType::Int), gi);
        let proj = SpaceCoercion::proj(
            gi,
            Label::new(0),
            Intermediate::Ground(GroundCoercion::IdBase(BaseType::Int)),
        );
        Term::let_(
            "f",
            Term::lam("x", Type::INT, Term::var("x").coerce(inj)),
            Term::var("f").app(Term::int(3)).coerce(proj),
        )
    }

    #[test]
    fn compile_round_trips() {
        let m = sample();
        let mut ctx = CompileCtx::new();
        let compiled = ctx.compile(&m);
        assert_eq!(compiled.decode(&ctx.arena, &ctx.types), m);
    }

    #[test]
    fn compiling_twice_is_idempotent_in_the_arenas() {
        let m = sample();
        let mut ctx = CompileCtx::new();
        let first = ctx.compile(&m);
        let nodes = ctx.arena.len();
        let tnodes = ctx.types.len();
        let second = ctx.compile(&m);
        assert_eq!(first, second, "same ids, same structure");
        assert_eq!(ctx.arena.len(), nodes, "no new coercion nodes");
        assert_eq!(ctx.types.len(), tnodes, "no new type nodes");
    }

    #[test]
    fn coerce_ids_match_direct_interning() {
        let gi = Ground::Base(BaseType::Int);
        let inj = SpaceCoercion::inj(GroundCoercion::IdBase(BaseType::Int), gi);
        let m = Term::int(1).coerce(inj.clone());
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(&m);
        let Node::Coerce(_, id) = code.node(code.root()) else {
            panic!("compiled a Coerce to something else");
        };
        assert_eq!(id, ctx.arena.intern(&inj));
    }

    #[test]
    fn size_counts_handles_as_single_nodes() {
        let m = sample();
        let mut ctx = CompileCtx::new();
        let compiled = ctx.compile(&m);
        assert_eq!(compiled.coercion_nodes(), 2);
        // Each handle is one node, whatever its tree size.
        assert_eq!(compiled.size() + m.coercion_size(), m.size());
        assert_eq!(compiled.display(&ctx.arena, &ctx.types), m.to_string());
    }

    #[test]
    fn variables_resolve_to_de_bruijn_indices() {
        // let f = λx. x in fix g (y). (f y) g — shadowing-free, but
        // every binder form and both fix bindings are exercised.
        let m = Term::let_(
            "f",
            Term::lam("x", Type::INT, Term::var("x")),
            Term::Fix(
                "g".into(),
                "y".into(),
                Type::INT,
                Type::INT,
                Term::var("f")
                    .app(Term::var("y"))
                    .app(Term::var("g"))
                    .into(),
            ),
        );
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(&m);
        let vars: Vec<Node> = code
            .nodes()
            .iter()
            .copied()
            .filter(|n| matches!(n, Node::Var { .. } | Node::Free(_)))
            .collect();
        // x ↦ 0 in slot 1; inside fix: y ↦ 0 in slot 1, g ↦ 1 in slot
        // 0, and f ↦ 2, the fix's only capture, copied from slot 0.
        let var = |index, slot| Node::Var { index, slot };
        assert_eq!(vars, [var(0, 1), var(2, CAPTURED), var(0, 1), var(1, 0)]);
        // λx captures nothing; the fix copies f from the top level's
        // slot 0.
        assert_eq!(capture_lists(&code), [&[][..], &[0]]);
        assert_eq!(code.decode(&ctx.arena, &ctx.types), m);
    }

    fn capture_lists(code: &SCode) -> Vec<&[u32]> {
        code.nodes()
            .iter()
            .filter_map(|n| match *n {
                Node::Lam { caps, .. } | Node::Fix { caps, .. } => Some(code.captures(caps)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn shadowing_and_free_variables_decode_exactly() {
        let m = Term::lam(
            "x",
            Type::INT,
            Term::lam("x", Type::BOOL, Term::var("x")).app(Term::var("z")),
        );
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(&m);
        assert!(code.nodes().contains(&Node::Free(2)), "{code:?}");
        assert_eq!(code.decode(&ctx.arena, &ctx.types), m);
    }

    #[test]
    fn odd_arity_operators_round_trip() {
        let m = Term::Op(Op::Add, vec![Term::int(1), Term::int(2), Term::int(3)]);
        let mut ctx = CompileCtx::new();
        let code = ctx.compile(&m);
        assert!(matches!(code.node(code.root()), Node::OpN { len: 3, .. }));
        assert_eq!(code.decode(&ctx.arena, &ctx.types), m);
    }
}
