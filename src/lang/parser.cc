#include "lang/parser.hh"

#include "lang/lexer.hh"
#include "support/logging.hh"

namespace elag {
namespace lang {

namespace {

ExprPtr
makeExpr(ExprKind kind, SrcLoc loc)
{
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->loc = loc;
    return e;
}

StmtPtr
makeStmt(StmtKind kind, SrcLoc loc)
{
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->loc = loc;
    return s;
}

/** Binary operator precedence; higher binds tighter; -1 = not binary. */
int
binPrec(TokKind kind)
{
    switch (kind) {
      case TokKind::PipePipe: return 1;
      case TokKind::AmpAmp: return 2;
      case TokKind::Pipe: return 3;
      case TokKind::Caret: return 4;
      case TokKind::Amp: return 5;
      case TokKind::Eq:
      case TokKind::Ne: return 6;
      case TokKind::Lt:
      case TokKind::Le:
      case TokKind::Gt:
      case TokKind::Ge: return 7;
      case TokKind::Shl:
      case TokKind::Shr: return 8;
      case TokKind::Plus:
      case TokKind::Minus: return 9;
      case TokKind::Star:
      case TokKind::Slash:
      case TokKind::Percent: return 10;
      default: return -1;
    }
}

BinaryOp
binOpFor(TokKind kind)
{
    switch (kind) {
      case TokKind::PipePipe: return BinaryOp::LogOr;
      case TokKind::AmpAmp: return BinaryOp::LogAnd;
      case TokKind::Pipe: return BinaryOp::Or;
      case TokKind::Caret: return BinaryOp::Xor;
      case TokKind::Amp: return BinaryOp::And;
      case TokKind::Eq: return BinaryOp::Eq;
      case TokKind::Ne: return BinaryOp::Ne;
      case TokKind::Lt: return BinaryOp::Lt;
      case TokKind::Le: return BinaryOp::Le;
      case TokKind::Gt: return BinaryOp::Gt;
      case TokKind::Ge: return BinaryOp::Ge;
      case TokKind::Shl: return BinaryOp::Shl;
      case TokKind::Shr: return BinaryOp::Shr;
      case TokKind::Plus: return BinaryOp::Add;
      case TokKind::Minus: return BinaryOp::Sub;
      case TokKind::Star: return BinaryOp::Mul;
      case TokKind::Slash: return BinaryOp::Div;
      case TokKind::Percent: return BinaryOp::Rem;
      default:
        panic("binOpFor: not a binary operator");
    }
}

/** Compound-assignment operator, or nullopt. */
bool
compoundOpFor(TokKind kind, BinaryOp &op)
{
    switch (kind) {
      case TokKind::PlusAssign: op = BinaryOp::Add; return true;
      case TokKind::MinusAssign: op = BinaryOp::Sub; return true;
      case TokKind::StarAssign: op = BinaryOp::Mul; return true;
      case TokKind::SlashAssign: op = BinaryOp::Div; return true;
      case TokKind::PercentAssign: op = BinaryOp::Rem; return true;
      case TokKind::AmpAssign: op = BinaryOp::And; return true;
      case TokKind::PipeAssign: op = BinaryOp::Or; return true;
      case TokKind::CaretAssign: op = BinaryOp::Xor; return true;
      case TokKind::ShlAssign: op = BinaryOp::Shl; return true;
      case TokKind::ShrAssign: op = BinaryOp::Shr; return true;
      default: return false;
    }
}

} // anonymous namespace

Parser::Parser(std::vector<Token> tokens, TypeTable &types)
    : toks(std::move(tokens)), types(types)
{
    elag_assert(!toks.empty() &&
                toks.back().kind == TokKind::EndOfFile);
}

const Token &
Parser::peek(int ahead) const
{
    size_t p = pos + static_cast<size_t>(ahead);
    if (p >= toks.size())
        return toks.back();
    return toks[p];
}

const Token &
Parser::advance()
{
    const Token &t = peek();
    if (pos + 1 < toks.size())
        ++pos;
    return t;
}

bool
Parser::check(TokKind kind) const
{
    return peek().kind == kind;
}

bool
Parser::accept(TokKind kind)
{
    if (!check(kind))
        return false;
    advance();
    return true;
}

const Token &
Parser::expect(TokKind kind, const char *context)
{
    if (!check(kind)) {
        error(formatString("expected %s %s, found %s",
                           tokKindName(kind).c_str(), context,
                           tokKindName(peek().kind).c_str()));
    }
    return advance();
}

void
Parser::error(const std::string &msg) const
{
    fatal("parse error at %d:%d: %s", peek().loc.line, peek().loc.col,
          msg.c_str());
}

void
Parser::Nest::deeper()
{
    ++levels;
    if (++parser.depth > MaxNesting)
        parser.error(formatString("nesting deeper than %d levels",
                                  MaxNesting));
}

bool
Parser::atTypeName() const
{
    TokKind k = peek().kind;
    return k == TokKind::KwInt || k == TokKind::KwChar ||
           k == TokKind::KwVoid;
}

const Type *
Parser::parseTypeName()
{
    const Type *base;
    if (accept(TokKind::KwInt)) {
        base = types.intType();
    } else if (accept(TokKind::KwChar)) {
        base = types.charType();
    } else if (accept(TokKind::KwVoid)) {
        base = types.voidType();
    } else {
        error("expected type name");
    }
    while (accept(TokKind::Star))
        base = types.ptrTo(base);
    return base;
}

std::unique_ptr<Program>
Parser::parseProgram()
{
    auto prog = std::make_unique<Program>();
    while (!check(TokKind::EndOfFile)) {
        SrcLoc loc = peek().loc;
        const Type *type = parseTypeName();
        const Token &name_tok = expect(TokKind::Ident, "in declaration");
        std::string name = name_tok.text;
        if (check(TokKind::LParen)) {
            prog->functions.push_back(parseFunction(type, name, loc));
        } else {
            if (type->isVoid())
                error("variable '" + name + "' declared void");
            prog->globals.push_back(parseVarDeclTail(type, name, loc));
            prog->globals.back()->isGlobal = true;
        }
    }
    return prog;
}

std::unique_ptr<FuncDecl>
Parser::parseFunction(const Type *ret, const std::string &name,
                      SrcLoc loc)
{
    auto fn = std::make_unique<FuncDecl>();
    fn->name = name;
    fn->loc = loc;
    fn->returnType = ret;

    expect(TokKind::LParen, "after function name");
    if (!check(TokKind::RParen)) {
        if (check(TokKind::KwVoid) &&
            peek(1).kind == TokKind::RParen) {
            advance(); // f(void)
        } else {
            do {
                SrcLoc ploc = peek().loc;
                const Type *ptype = parseTypeName();
                if (ptype->isVoid())
                    error("parameter declared void");
                const Token &pname =
                    expect(TokKind::Ident, "in parameter list");
                auto param = std::make_unique<VarDecl>();
                param->name = pname.text;
                param->loc = ploc;
                param->type = ptype;
                param->isParam = true;
                param->paramIndex =
                    static_cast<int>(fn->params.size());
                fn->params.push_back(std::move(param));
            } while (accept(TokKind::Comma));
        }
    }
    expect(TokKind::RParen, "after parameters");
    fn->body = parseBlock();
    return fn;
}

std::unique_ptr<VarDecl>
Parser::parseVarDeclTail(const Type *base, const std::string &name,
                         SrcLoc loc)
{
    auto var = std::make_unique<VarDecl>();
    var->name = name;
    var->loc = loc;
    var->type = base;
    if (accept(TokKind::LBracket)) {
        const Token &size = expect(TokKind::IntLit, "as array size");
        if (size.intValue <= 0)
            error("array size must be positive");
        var->isArray = true;
        var->arraySize = static_cast<int>(size.intValue);
        expect(TokKind::RBracket, "after array size");
    }
    if (accept(TokKind::Assign)) {
        if (var->isArray)
            error("array initializers are not supported");
        var->init = parseAssignment();
    }
    expect(TokKind::Semi, "after declaration");
    return var;
}

StmtPtr
Parser::parseBlock()
{
    SrcLoc loc = peek().loc;
    expect(TokKind::LBrace, "to open block");
    auto block = makeStmt(StmtKind::Block, loc);
    while (!check(TokKind::RBrace)) {
        if (check(TokKind::EndOfFile))
            error("unterminated block");
        block->body.push_back(parseStmt());
    }
    expect(TokKind::RBrace, "to close block");
    return block;
}

StmtPtr
Parser::parseStmt()
{
    Nest nest(*this);
    SrcLoc loc = peek().loc;
    if (check(TokKind::LBrace))
        return parseBlock();
    if (check(TokKind::KwIf))
        return parseIf();
    if (check(TokKind::KwWhile))
        return parseWhile();
    if (check(TokKind::KwDo))
        return parseDoWhile();
    if (check(TokKind::KwFor))
        return parseFor();
    if (accept(TokKind::KwReturn)) {
        auto stmt = makeStmt(StmtKind::Return, loc);
        if (!check(TokKind::Semi))
            stmt->expr = parseExpr();
        expect(TokKind::Semi, "after return");
        return stmt;
    }
    if (accept(TokKind::KwBreak)) {
        expect(TokKind::Semi, "after break");
        return makeStmt(StmtKind::Break, loc);
    }
    if (accept(TokKind::KwContinue)) {
        expect(TokKind::Semi, "after continue");
        return makeStmt(StmtKind::Continue, loc);
    }
    if (accept(TokKind::Semi))
        return makeStmt(StmtKind::Empty, loc);
    if (atTypeName()) {
        const Type *type = parseTypeName();
        if (type->isVoid())
            error("variable declared void");
        const Token &name = expect(TokKind::Ident, "in declaration");
        auto stmt = makeStmt(StmtKind::Decl, loc);
        stmt->decl = parseVarDeclTail(type, name.text, loc);
        return stmt;
    }
    auto stmt = makeStmt(StmtKind::Expr, loc);
    stmt->expr = parseExpr();
    expect(TokKind::Semi, "after expression");
    return stmt;
}

StmtPtr
Parser::parseIf()
{
    SrcLoc loc = peek().loc;
    expect(TokKind::KwIf, "");
    expect(TokKind::LParen, "after 'if'");
    auto stmt = makeStmt(StmtKind::If, loc);
    stmt->expr = parseExpr();
    expect(TokKind::RParen, "after condition");
    stmt->thenStmt = parseStmt();
    if (accept(TokKind::KwElse))
        stmt->elseStmt = parseStmt();
    return stmt;
}

StmtPtr
Parser::parseWhile()
{
    SrcLoc loc = peek().loc;
    expect(TokKind::KwWhile, "");
    expect(TokKind::LParen, "after 'while'");
    auto stmt = makeStmt(StmtKind::While, loc);
    stmt->expr = parseExpr();
    expect(TokKind::RParen, "after condition");
    stmt->thenStmt = parseStmt();
    return stmt;
}

StmtPtr
Parser::parseDoWhile()
{
    SrcLoc loc = peek().loc;
    expect(TokKind::KwDo, "");
    auto stmt = makeStmt(StmtKind::DoWhile, loc);
    stmt->thenStmt = parseStmt();
    expect(TokKind::KwWhile, "after do body");
    expect(TokKind::LParen, "after 'while'");
    stmt->expr = parseExpr();
    expect(TokKind::RParen, "after condition");
    expect(TokKind::Semi, "after do-while");
    return stmt;
}

StmtPtr
Parser::parseFor()
{
    SrcLoc loc = peek().loc;
    expect(TokKind::KwFor, "");
    expect(TokKind::LParen, "after 'for'");
    auto stmt = makeStmt(StmtKind::For, loc);
    if (!check(TokKind::Semi)) {
        if (atTypeName()) {
            SrcLoc dloc = peek().loc;
            const Type *type = parseTypeName();
            if (type->isVoid())
                error("variable declared void");
            const Token &name =
                expect(TokKind::Ident, "in for-init declaration");
            auto init = makeStmt(StmtKind::Decl, dloc);
            init->decl = parseVarDeclTail(type, name.text, dloc);
            stmt->forInit = std::move(init);
        } else {
            auto init = makeStmt(StmtKind::Expr, peek().loc);
            init->expr = parseExpr();
            expect(TokKind::Semi, "after for-init");
            stmt->forInit = std::move(init);
        }
    } else {
        advance();
    }
    if (!check(TokKind::Semi))
        stmt->forCond = parseExpr();
    expect(TokKind::Semi, "after for-condition");
    if (!check(TokKind::RParen))
        stmt->forStep = parseExpr();
    expect(TokKind::RParen, "after for-step");
    stmt->thenStmt = parseStmt();
    return stmt;
}

ExprPtr
Parser::parseExpr()
{
    return parseAssignment();
}

ExprPtr
Parser::parseAssignment()
{
    Nest nest(*this);
    ExprPtr lhs = parseConditional();
    BinaryOp compound_op;
    if (accept(TokKind::Assign)) {
        auto e = makeExpr(ExprKind::Assign, lhs->loc);
        e->lhs = std::move(lhs);
        e->rhs = parseAssignment();
        return e;
    }
    if (compoundOpFor(peek().kind, compound_op)) {
        advance();
        auto e = makeExpr(ExprKind::Assign, lhs->loc);
        e->lhs = std::move(lhs);
        e->rhs = parseAssignment();
        e->isCompound = true;
        e->binaryOp = compound_op;
        return e;
    }
    return lhs;
}

ExprPtr
Parser::parseConditional()
{
    ExprPtr cond = parseBinary(1);
    if (!accept(TokKind::Question))
        return cond;
    Nest nest(*this);
    auto e = makeExpr(ExprKind::Cond, cond->loc);
    e->lhs = std::move(cond);
    e->rhs = parseExpr();
    expect(TokKind::Colon, "in conditional expression");
    e->third = parseConditional();
    return e;
}

ExprPtr
Parser::parseBinary(int min_prec)
{
    ExprPtr lhs = parseUnary();
    Nest chain(*this, 0);
    for (;;) {
        int prec = binPrec(peek().kind);
        if (prec < min_prec)
            return lhs;
        chain.deeper();
        TokKind op_tok = advance().kind;
        ExprPtr rhs = parseBinary(prec + 1);
        auto e = makeExpr(ExprKind::Binary, lhs->loc);
        e->binaryOp = binOpFor(op_tok);
        e->lhs = std::move(lhs);
        e->rhs = std::move(rhs);
        lhs = std::move(e);
    }
}

ExprPtr
Parser::parseUnary()
{
    Nest nest(*this);
    SrcLoc loc = peek().loc;
    // A cast: '(' type-name ')' unary.
    if (check(TokKind::LParen)) {
        TokKind next = peek(1).kind;
        if (next == TokKind::KwInt || next == TokKind::KwChar ||
            next == TokKind::KwVoid) {
            advance();
            const Type *type = parseTypeName();
            expect(TokKind::RParen, "after cast type");
            auto e = makeExpr(ExprKind::Cast, loc);
            e->castType = type;
            e->lhs = parseUnary();
            return e;
        }
    }
    UnaryOp op;
    if (accept(TokKind::Minus)) {
        op = UnaryOp::Neg;
    } else if (accept(TokKind::Bang)) {
        op = UnaryOp::Not;
    } else if (accept(TokKind::Tilde)) {
        op = UnaryOp::BitNot;
    } else if (accept(TokKind::Star)) {
        op = UnaryOp::Deref;
    } else if (accept(TokKind::Amp)) {
        op = UnaryOp::AddrOf;
    } else if (check(TokKind::PlusPlus) || check(TokKind::MinusMinus)) {
        bool inc = advance().kind == TokKind::PlusPlus;
        auto e = makeExpr(ExprKind::IncDec, loc);
        e->isIncrement = inc;
        e->isPostfix = false;
        e->lhs = parseUnary();
        return e;
    } else {
        return parsePostfix();
    }
    auto e = makeExpr(ExprKind::Unary, loc);
    e->unaryOp = op;
    e->lhs = parseUnary();
    return e;
}

ExprPtr
Parser::parsePostfix()
{
    ExprPtr e = parsePrimary();
    Nest chain(*this, 0);
    for (;;) {
        SrcLoc loc = peek().loc;
        if (accept(TokKind::LBracket)) {
            auto idx = makeExpr(ExprKind::Index, loc);
            idx->lhs = std::move(e);
            idx->rhs = parseExpr();
            expect(TokKind::RBracket, "after index");
            e = std::move(idx);
        } else if (accept(TokKind::LParen)) {
            auto call = makeExpr(ExprKind::Call, loc);
            if (e->kind != ExprKind::VarRef)
                error("called object is not a function name");
            call->name = e->name;
            if (!check(TokKind::RParen)) {
                do {
                    call->args.push_back(parseAssignment());
                } while (accept(TokKind::Comma));
            }
            expect(TokKind::RParen, "after call arguments");
            e = std::move(call);
        } else if (accept(TokKind::PlusPlus)) {
            auto inc = makeExpr(ExprKind::IncDec, loc);
            inc->isIncrement = true;
            inc->isPostfix = true;
            inc->lhs = std::move(e);
            e = std::move(inc);
        } else if (accept(TokKind::MinusMinus)) {
            auto dec = makeExpr(ExprKind::IncDec, loc);
            dec->isIncrement = false;
            dec->isPostfix = true;
            dec->lhs = std::move(e);
            e = std::move(dec);
        } else {
            return e;
        }
        chain.deeper();
    }
}

ExprPtr
Parser::parsePrimary()
{
    SrcLoc loc = peek().loc;
    if (check(TokKind::IntLit) || check(TokKind::CharLit)) {
        auto e = makeExpr(ExprKind::IntLit, loc);
        e->intValue = advance().intValue;
        return e;
    }
    if (check(TokKind::Ident)) {
        auto e = makeExpr(ExprKind::VarRef, loc);
        e->name = advance().text;
        return e;
    }
    if (accept(TokKind::LParen)) {
        ExprPtr e = parseExpr();
        expect(TokKind::RParen, "after expression");
        return e;
    }
    error(formatString("expected expression, found %s",
                       tokKindName(peek().kind).c_str()));
}

std::unique_ptr<Program>
parseSource(const std::string &source, TypeTable &types)
{
    Lexer lexer(source);
    Parser parser(lexer.tokenize(), types);
    return parser.parseProgram();
}

} // namespace lang
} // namespace elag
