//! Recursive-descent parser for the GTLC surface syntax.
//!
//! ```text
//! expr     := lambda | let | letrec | if | or
//! lambda   := "fun" (ident | "(" ident ":" type ")") "=>" expr
//! let      := "let" ident (":" type)? "=" expr "in" expr
//! letrec   := "letrec" ident "(" ident ":" type ")" ":" type "=" expr "in" expr
//! if       := "if" expr "then" expr "else" expr
//! or       := and ("or" and)*
//! and      := cmp ("and" cmp)*
//! cmp      := add (("=" | "<" | "<=") add)?
//! add      := mul (("+" | "-") mul)*
//! mul      := unary (("*" | "quot" | "rem") unary)*
//! unary    := "not" unary | "-" unary | app
//! app      := atom atom*
//! atom     := int | "true" | "false" | ident | "(" expr (":" type)? ")"
//! type     := tyatom ("->" type)?
//! tyatom   := "Int" | "Bool" | "?" | "(" type ")"
//! ```
//!
//! The five binary levels `or` to `mul` are parsed by one
//! precedence-climbing loop. The parser bounds the depth of the tree it
//! builds (`MAX_DEPTH`): every later stage walks the tree
//! recursively, so a deeper input is a [`Diagnostic`], never a stack
//! overflow.

use bc_syntax::{BaseType, Op, Type, TypeArena, TypeId};

use crate::ast::{Expr, ExprI, ExprKind};
use crate::diagnostics::{Diagnostic, Span};
use crate::token::{Token, TokenKind};

/// The deepest tree the parser builds. Each nested expression, prefix
/// operator, binary operator or application in a chain, and nested
/// type counts one level, so a chain of `n` operands is `n` levels
/// deep, as its left-nested tree is.
///
/// Measured on a 2 MiB thread (a spawned thread's default stack, and
/// so a pool worker's) by compiling one program of each shape through
/// a `Session` and running it on all six engines, raising the depth
/// until the thread overflowed. A debug build passed up to 204 nested
/// parentheses, a 173-operand `+` chain and 173 nested `let`s (on
/// those two it is compiling after the parse that runs out) and the
/// largest arrow type tried, 595 levels. A release build passed about
/// 1 000 nested parentheses, a 1 000-operand chain and 2 000 nested
/// `let`s. The bound keeps a quarter of the debug build's smallest
/// depth as margin.
const MAX_DEPTH: usize = 128;

/// How the parser builds type annotations: either as `Rc<Type>` trees
/// (the classic path) or by interning directly into a [`TypeArena`]
/// (the allocation-free path — the annotation never exists as a tree).
trait TyBuild {
    /// The annotation representation.
    type Ty;
    /// The base type `Int` / `Bool`.
    fn base(&mut self, b: BaseType) -> Self::Ty;
    /// The dynamic type `?`.
    fn dynamic(&mut self) -> Self::Ty;
    /// The function type `dom -> cod`.
    fn fun(&mut self, dom: Self::Ty, cod: Self::Ty) -> Self::Ty;
}

/// Tree-building annotations.
struct TreeTy;

impl TyBuild for TreeTy {
    type Ty = Type;
    fn base(&mut self, b: BaseType) -> Type {
        b.ty()
    }
    fn dynamic(&mut self) -> Type {
        Type::DYN
    }
    fn fun(&mut self, dom: Type, cod: Type) -> Type {
        Type::fun(dom, cod)
    }
}

/// Intern-at-parse annotations: types are built bottom-up as arena
/// ids, so a warm arena hands back existing ids and allocates nothing.
struct ArenaTy<'t>(&'t mut TypeArena);

impl TyBuild for ArenaTy<'_> {
    type Ty = TypeId;
    fn base(&mut self, b: BaseType) -> TypeId {
        self.0.base(b)
    }
    fn dynamic(&mut self) -> TypeId {
        self.0.dyn_ty()
    }
    fn fun(&mut self, dom: TypeId, cod: TypeId) -> TypeId {
        self.0.fun(dom, cod)
    }
}

/// Parses a token stream (as produced by [`crate::lexer::lex`]) into
/// an expression.
///
/// # Errors
///
/// Returns a [`Diagnostic`] at the first syntax error.
pub fn parse(tokens: &[Token]) -> Result<Expr, Diagnostic> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        ty_build: TreeTy,
    };
    let e = p.expr()?;
    p.expect(&TokenKind::Eof, "expected end of input")?;
    Ok(e)
}

/// Parses a token stream with type annotations interned directly into
/// `types`: the same grammar as [`parse`], but no `Rc<Type>` spine is
/// ever built — each annotation is hash-consed bottom-up, so parsing
/// structurally similar source against a warm arena allocates no type
/// nodes at all.
///
/// # Errors
///
/// Returns a [`Diagnostic`] at the first syntax error — identical to
/// the one [`parse`] produces.
pub fn parse_in(tokens: &[Token], types: &mut TypeArena) -> Result<ExprI, Diagnostic> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        ty_build: ArenaTy(types),
    };
    let e = p.expr()?;
    p.expect(&TokenKind::Eof, "expected end of input")?;
    Ok(e)
}

struct Parser<'a, B> {
    tokens: &'a [Token],
    pos: usize,
    /// Levels of the tree above the node being parsed.
    depth: usize,
    ty_build: B,
}

/// The binary operator a token stands for, with its binding strength
/// (higher binds tighter).
fn binary_op(kind: &TokenKind) -> Option<(Op, u8)> {
    Some(match kind {
        TokenKind::Or => (Op::Or, 0),
        TokenKind::And => (Op::And, 1),
        TokenKind::Equals => (Op::Eq, CMP),
        TokenKind::Less => (Op::Lt, CMP),
        TokenKind::LessEq => (Op::Leq, CMP),
        TokenKind::Plus => (Op::Add, 3),
        TokenKind::Minus => (Op::Sub, 3),
        TokenKind::Star => (Op::Mul, 4),
        TokenKind::Quot => (Op::Quot, 4),
        TokenKind::Rem => (Op::Rem, 4),
        _ => return None,
    })
}

/// The binding strength of the comparisons, which do not chain.
const CMP: u8 = 2;

impl<'a, B: TyBuild> Parser<'a, B> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, message: &str) -> Result<Token, Diagnostic> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(Diagnostic::new(
                format!("{message}, found `{}`", self.peek().kind),
                self.peek().span,
            ))
        }
    }

    fn ident(&mut self, message: &str) -> Result<(String, Span), Diagnostic> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                let span = self.peek().span;
                self.bump();
                Ok((s, span))
            }
            other => Err(Diagnostic::new(
                format!("{message}, found `{other}`"),
                self.peek().span,
            )),
        }
    }

    /// Enters one more level of the tree, or fails at the current
    /// token past [`MAX_DEPTH`]. A caller that returns `Ok` leaves the
    /// levels it entered.
    fn descend(&mut self) -> Result<(), Diagnostic> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Diagnostic::new(
                format!("the program nests deeper than {MAX_DEPTH} levels"),
                self.peek().span,
            ));
        }
        Ok(())
    }

    fn expr(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        self.descend()?;
        let e = match self.peek().kind {
            TokenKind::Fun => self.lambda(),
            TokenKind::Let => self.let_(),
            TokenKind::Letrec => self.letrec(),
            TokenKind::If => self.if_(),
            _ => self.binary(0),
        };
        self.depth -= 1;
        e
    }

    fn lambda(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let start = self.expect(&TokenKind::Fun, "expected `fun`")?.span;
        let (param, ty) = if self.eat(&TokenKind::LParen) {
            let (name, _) = self.ident("expected a parameter name")?;
            self.expect(&TokenKind::Colon, "expected `:` after parameter name")?;
            let ty = self.ty()?;
            self.expect(&TokenKind::RParen, "expected `)` after parameter type")?;
            (name, ty)
        } else {
            // Unannotated parameter: dynamically typed.
            let (name, _) = self.ident("expected a parameter")?;
            let dyn_ty = self.ty_build.dynamic();
            (name, dyn_ty)
        };
        self.expect(&TokenKind::FatArrow, "expected `=>` after parameter")?;
        let body = self.expr()?;
        let span = start.merge(body.span);
        Ok(Expr::new(
            ExprKind::Lam {
                param,
                ty,
                body: Box::new(body),
            },
            span,
        ))
    }

    fn let_(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let start = self.expect(&TokenKind::Let, "expected `let`")?.span;
        let (name, _) = self.ident("expected a name after `let`")?;
        let ty = if self.eat(&TokenKind::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        self.expect(&TokenKind::Equals, "expected `=` in let binding")?;
        let bound = self.expr()?;
        self.expect(&TokenKind::In, "expected `in` after let binding")?;
        let body = self.expr()?;
        let span = start.merge(body.span);
        Ok(Expr::new(
            ExprKind::Let {
                name,
                ty,
                bound: Box::new(bound),
                body: Box::new(body),
            },
            span,
        ))
    }

    fn letrec(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let start = self.expect(&TokenKind::Letrec, "expected `letrec`")?.span;
        let (name, _) = self.ident("expected a function name after `letrec`")?;
        self.expect(&TokenKind::LParen, "expected `(` after function name")?;
        let (param, _) = self.ident("expected a parameter name")?;
        self.expect(&TokenKind::Colon, "expected `:` after parameter name")?;
        let param_ty = self.ty()?;
        self.expect(&TokenKind::RParen, "expected `)` after parameter type")?;
        self.expect(&TokenKind::Colon, "expected `:` before the result type")?;
        let result_ty = self.ty()?;
        self.expect(&TokenKind::Equals, "expected `=` in letrec binding")?;
        let fun_body = self.expr()?;
        self.expect(&TokenKind::In, "expected `in` after letrec binding")?;
        let body = self.expr()?;
        let span = start.merge(body.span);
        Ok(Expr::new(
            ExprKind::Letrec {
                name,
                param,
                param_ty,
                result_ty,
                fun_body: Box::new(fun_body),
                body: Box::new(body),
            },
            span,
        ))
    }

    fn if_(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let start = self.expect(&TokenKind::If, "expected `if`")?.span;
        let cond = self.expr()?;
        self.expect(&TokenKind::Then, "expected `then`")?;
        let then_ = self.expr()?;
        self.expect(&TokenKind::Else, "expected `else`")?;
        let else_ = self.expr()?;
        let span = start.merge(else_.span);
        Ok(Expr::new(
            ExprKind::If(Box::new(cond), Box::new(then_), Box::new(else_)),
            span,
        ))
    }

    /// The binary operators binding at least as tightly as `min`, by
    /// precedence climbing: left-associative, except that a comparison
    /// does not chain. After each operator, only operators that its
    /// right operand's parse could not take may follow: looser ones, or
    /// after a comparison, looser than a comparison.
    fn binary(&mut self, min: u8) -> Result<Expr<B::Ty>, Diagnostic> {
        let mut lhs = self.unary()?;
        let entered = self.depth;
        let mut max = u8::MAX;
        while let Some((op, strength)) = binary_op(&self.peek().kind) {
            if strength < min || strength > max {
                break;
            }
            self.descend()?;
            self.bump();
            let rhs = self.binary(strength + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Prim(op, vec![lhs, rhs]), span);
            max = if strength == CMP { CMP - 1 } else { strength };
        }
        self.depth = entered;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let op = match self.peek().kind {
            TokenKind::Not => Op::Not,
            TokenKind::Minus => Op::Neg,
            _ => return self.app(),
        };
        self.descend()?;
        let start = self.bump().span;
        let e = self.unary()?;
        self.depth -= 1;
        let span = start.merge(e.span);
        Ok(Expr::new(ExprKind::Prim(op, vec![e]), span))
    }

    fn app(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let mut fun = self.atom()?;
        let entered = self.depth;
        while self.starts_atom() {
            self.descend()?;
            let arg = self.atom()?;
            let span = fun.span.merge(arg.span);
            fun = Expr::new(ExprKind::App(Box::new(fun), Box::new(arg)), span);
        }
        self.depth = entered;
        Ok(fun)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek().kind,
            TokenKind::Int(_)
                | TokenKind::Ident(_)
                | TokenKind::True
                | TokenKind::False
                | TokenKind::LParen
        )
    }

    fn atom(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let tok = self.peek().clone();
        match tok.kind {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::Int(n), tok.span))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(true), tok.span))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(false), tok.span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::new(ExprKind::Var(name), tok.span))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                if self.eat(&TokenKind::Colon) {
                    let ty = self.ty()?;
                    let close = self.expect(&TokenKind::RParen, "expected `)` after ascription")?;
                    let span = tok.span.merge(close.span);
                    Ok(Expr::new(ExprKind::Ascribe(Box::new(inner), ty), span))
                } else {
                    let close = self.expect(&TokenKind::RParen, "expected `)`")?;
                    let span = tok.span.merge(close.span);
                    Ok(Expr::new(inner.kind, span))
                }
            }
            other => Err(Diagnostic::new(
                format!("expected an expression, found `{other}`"),
                tok.span,
            )),
        }
    }

    fn ty(&mut self) -> Result<B::Ty, Diagnostic> {
        self.descend()?;
        let lhs = self.ty_atom()?;
        let ty = if self.eat(&TokenKind::Arrow) {
            let rhs = self.ty()?;
            self.ty_build.fun(lhs, rhs)
        } else {
            lhs
        };
        self.depth -= 1;
        Ok(ty)
    }

    fn ty_atom(&mut self) -> Result<B::Ty, Diagnostic> {
        let tok = self.peek().clone();
        match tok.kind {
            TokenKind::TyInt => {
                self.bump();
                Ok(self.ty_build.base(BaseType::Int))
            }
            TokenKind::TyBool => {
                self.bump();
                Ok(self.ty_build.base(BaseType::Bool))
            }
            TokenKind::Question => {
                self.bump();
                Ok(self.ty_build.dynamic())
            }
            TokenKind::LParen => {
                self.bump();
                let t = self.ty()?;
                self.expect(&TokenKind::RParen, "expected `)` in type")?;
                Ok(t)
            }
            other => Err(Diagnostic::new(
                format!("expected a type, found `{other}`"),
                tok.span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_str(src: &str) -> Expr {
        parse(&lex(src).unwrap()).unwrap_or_else(|e| panic!("parse error: {}", e.render(src)))
    }

    #[test]
    fn application_is_left_associative() {
        let e = parse_str("f x y");
        match e.kind {
            ExprKind::App(fx, y) => {
                assert!(matches!(y.kind, ExprKind::Var(ref n) if n == "y"));
                assert!(matches!(fx.kind, ExprKind::App(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_str("1 + 2 * 3");
        match e.kind {
            ExprKind::Prim(Op::Add, args) => {
                assert!(matches!(args[1].kind, ExprKind::Prim(Op::Mul, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrow_types_are_right_associative() {
        let e = parse_str("fun (f : Int -> Int -> Bool) => f");
        match e.kind {
            ExprKind::Lam { ty, .. } => {
                assert_eq!(ty, Type::fun(Type::INT, Type::fun(Type::INT, Type::BOOL)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unannotated_parameters_are_dynamic() {
        let e = parse_str("fun x => x");
        match e.kind {
            ExprKind::Lam { ty, .. } => assert_eq!(ty, Type::DYN),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ascription() {
        let e = parse_str("(1 : ?)");
        assert!(matches!(e.kind, ExprKind::Ascribe(_, Type::Dyn)));
    }

    #[test]
    fn letrec_form() {
        let e = parse_str("letrec f (n : Int) : Int = f (n - 1) in f 3");
        assert!(matches!(e.kind, ExprKind::Letrec { .. }));
    }

    #[test]
    fn comparison_is_non_associative() {
        assert!(parse(&lex("1 < 2 < 3").unwrap()).is_err());
    }

    #[test]
    fn unary_minus_and_not() {
        let e = parse_str("not (- 1 < 2)");
        assert!(matches!(e.kind, ExprKind::Prim(Op::Not, _)));
    }

    #[test]
    fn error_mentions_the_found_token() {
        let err = parse(&lex("if 1 els 2").unwrap()).unwrap_err();
        assert!(err.message.contains("expected `then`"), "{}", err.message);
    }

    #[test]
    fn if_and_or_nest() {
        let e = parse_str("if true and false or true then 1 else 2");
        assert!(matches!(e.kind, ExprKind::If(_, _, _)));
    }
}
