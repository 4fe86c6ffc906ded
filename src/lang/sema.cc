#include "lang/sema.hh"

#include "isa/program.hh"
#include "support/logging.hh"

namespace elag {
namespace lang {

Sema::Sema(Program &program, TypeTable &types)
    : prog(program), types(types)
{
}

void
Sema::error(SrcLoc loc, const std::string &msg) const
{
    fatal("semantic error at %d:%d: %s", loc.line, loc.col, msg.c_str());
}

void
Sema::pushScope()
{
    scopes.emplace_back();
}

void
Sema::popScope()
{
    scopes.pop_back();
}

void
Sema::declare(VarDecl *var)
{
    elag_assert(!scopes.empty());
    auto &scope = scopes.back();
    if (scope.count(var->name))
        error(var->loc, "redefinition of '" + var->name + "'");
    scope[var->name] = var;
}

VarDecl *
Sema::lookup(const std::string &name) const
{
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        auto found = it->find(name);
        if (found != it->end())
            return found->second;
    }
    return nullptr;
}

void
Sema::declareBuiltins()
{
    // char *alloc(int bytes): bump allocation from the heap.
    {
        auto fn = std::make_unique<FuncDecl>();
        fn->name = "alloc";
        fn->returnType = types.ptrTo(types.charType());
        fn->isBuiltin = true;
        auto param = std::make_unique<VarDecl>();
        param->name = "bytes";
        param->type = types.intType();
        param->isParam = true;
        fn->params.push_back(std::move(param));
        prog.functions.push_back(std::move(fn));
    }
    // void print(int value): emit to the emulator output channel.
    {
        auto fn = std::make_unique<FuncDecl>();
        fn->name = "print";
        fn->returnType = types.voidType();
        fn->isBuiltin = true;
        auto param = std::make_unique<VarDecl>();
        param->name = "value";
        param->type = types.intType();
        param->isParam = true;
        fn->params.push_back(std::move(param));
        prog.functions.push_back(std::move(fn));
    }
}

int64_t
Sema::foldConst(const Expr &expr) const
{
    switch (expr.kind) {
      case ExprKind::IntLit:
        return expr.intValue;
      case ExprKind::Unary:
        switch (expr.unaryOp) {
          case UnaryOp::Neg: return -foldConst(*expr.lhs);
          case UnaryOp::Not: return !foldConst(*expr.lhs);
          case UnaryOp::BitNot: return ~foldConst(*expr.lhs);
          default:
            error(expr.loc, "initializer is not a constant");
        }
      case ExprKind::Binary: {
        int64_t a = foldConst(*expr.lhs);
        int64_t b = foldConst(*expr.rhs);
        switch (expr.binaryOp) {
          case BinaryOp::Add: return a + b;
          case BinaryOp::Sub: return a - b;
          case BinaryOp::Mul: return a * b;
          case BinaryOp::Div:
            if (b == 0)
                error(expr.loc, "division by zero in constant");
            return a / b;
          case BinaryOp::Rem:
            if (b == 0)
                error(expr.loc, "division by zero in constant");
            return a % b;
          case BinaryOp::And: return a & b;
          case BinaryOp::Or: return a | b;
          case BinaryOp::Xor: return a ^ b;
          case BinaryOp::Shl: return a << (b & 31);
          case BinaryOp::Shr: return a >> (b & 31);
          case BinaryOp::Eq: return a == b;
          case BinaryOp::Ne: return a != b;
          case BinaryOp::Lt: return a < b;
          case BinaryOp::Le: return a <= b;
          case BinaryOp::Gt: return a > b;
          case BinaryOp::Ge: return a >= b;
          case BinaryOp::LogAnd: return a && b;
          case BinaryOp::LogOr: return a || b;
        }
        error(expr.loc, "initializer is not a constant");
      }
      default:
        error(expr.loc, "initializer is not a constant");
    }
}

void
Sema::layoutGlobals()
{
    // The segment, with the heap-pointer word irgen appends, must fit
    // in the emulator's memory above GlobalBase. Sizes are summed in
    // 64 bits so a huge array cannot wrap the int offsets.
    const int64_t capacity = int64_t{isa::MemorySize} - isa::GlobalBase;
    int64_t offset = 0;
    for (auto &g : prog.globals) {
        int align = g->type->size();
        offset = (offset + align - 1) / align * align;
        g->globalOffset = static_cast<int>(offset);
        offset += g->isArray ? int64_t{g->type->size()} * g->arraySize
                             : g->type->size();
        int64_t segment = (offset + 7) / 8 * 8 + 4;
        if (segment > capacity) {
            error(g->loc,
                  formatString("global data needs %lld bytes, more than "
                               "the %lld bytes of simulated memory above "
                               "the global base",
                               static_cast<long long>(segment),
                               static_cast<long long>(capacity)));
        }
        if (g->init) {
            g->hasConstInit = true;
            g->constInit = foldConst(*g->init);
        }
    }
    globalBytes = static_cast<int>((offset + 7) / 8 * 8);
}

void
Sema::analyze()
{
    declareBuiltins();

    // Check for duplicate function definitions.
    for (size_t i = 0; i < prog.functions.size(); ++i) {
        for (size_t j = i + 1; j < prog.functions.size(); ++j) {
            if (prog.functions[i]->name == prog.functions[j]->name) {
                error(prog.functions[j]->loc,
                      "redefinition of function '" +
                          prog.functions[j]->name + "'");
            }
        }
    }

    pushScope(); // global scope
    for (auto &g : prog.globals)
        declare(g.get());
    layoutGlobals();

    FuncDecl *main_fn = prog.findFunction("main");
    if (!main_fn)
        error({0, 0}, "program has no 'main' function");
    if (!main_fn->returnType->isInt() || !main_fn->params.empty())
        error(main_fn->loc, "'main' must be declared as int main()");

    for (auto &fn : prog.functions) {
        if (!fn->isBuiltin)
            checkFunction(*fn);
    }
    popScope();
}

void
Sema::checkFunction(FuncDecl &fn)
{
    currentFn = &fn;
    pushScope();
    for (auto &param : fn.params)
        declare(param.get());
    checkStmt(*fn.body);
    popScope();
    currentFn = nullptr;
}

void
Sema::checkStmt(Stmt &stmt)
{
    switch (stmt.kind) {
      case StmtKind::Expr:
        checkExpr(*stmt.expr);
        break;
      case StmtKind::Decl: {
        VarDecl &var = *stmt.decl;
        if (var.init) {
            checkExpr(*var.init);
            const Type *target = var.valueType(types);
            if (!implicitlyConvertible(*var.init, target)) {
                error(var.loc,
                      "cannot initialize '" + target->toString() +
                          "' from '" + var.init->type->toString() + "'");
            }
        }
        declare(&var);
        break;
      }
      case StmtKind::Block:
        pushScope();
        for (auto &s : stmt.body)
            checkStmt(*s);
        popScope();
        break;
      case StmtKind::If:
        checkExpr(*stmt.expr);
        requireScalar(*stmt.expr, "if condition");
        checkStmt(*stmt.thenStmt);
        if (stmt.elseStmt)
            checkStmt(*stmt.elseStmt);
        break;
      case StmtKind::While:
      case StmtKind::DoWhile:
        checkExpr(*stmt.expr);
        requireScalar(*stmt.expr, "loop condition");
        ++loopDepth;
        checkStmt(*stmt.thenStmt);
        --loopDepth;
        break;
      case StmtKind::For:
        pushScope();
        if (stmt.forInit)
            checkStmt(*stmt.forInit);
        if (stmt.forCond) {
            checkExpr(*stmt.forCond);
            requireScalar(*stmt.forCond, "for condition");
        }
        if (stmt.forStep)
            checkExpr(*stmt.forStep);
        ++loopDepth;
        checkStmt(*stmt.thenStmt);
        --loopDepth;
        popScope();
        break;
      case StmtKind::Return: {
        const Type *ret = currentFn->returnType;
        if (stmt.expr) {
            checkExpr(*stmt.expr);
            if (ret->isVoid()) {
                error(stmt.loc, "void function '" + currentFn->name +
                                    "' returns a value");
            }
            if (!implicitlyConvertible(*stmt.expr, ret)) {
                error(stmt.loc,
                      "cannot return '" + stmt.expr->type->toString() +
                          "' from function returning '" +
                          ret->toString() + "'");
            }
        } else if (!ret->isVoid()) {
            error(stmt.loc, "non-void function '" + currentFn->name +
                                "' returns no value");
        }
        break;
      }
      case StmtKind::Break:
        if (loopDepth == 0)
            error(stmt.loc, "'break' outside of a loop");
        break;
      case StmtKind::Continue:
        if (loopDepth == 0)
            error(stmt.loc, "'continue' outside of a loop");
        break;
      case StmtKind::Empty:
        break;
      default:
        panic("checkStmt: bad statement kind");
    }
}

bool
Sema::implicitlyConvertible(const Expr &value, const Type *to) const
{
    const Type *from = value.type;
    if (from == to)
        return true;
    if (from->isArith() && to->isArith())
        return true;
    // Integer literal zero is a null pointer constant.
    if (to->isPtr() && value.kind == ExprKind::IntLit &&
        value.intValue == 0) {
        return true;
    }
    return false;
}

void
Sema::requireScalar(const Expr &expr, const char *what) const
{
    if (!expr.type->isScalar())
        error(expr.loc, std::string(what) + " must have scalar type");
}

void
Sema::checkExpr(Expr &expr)
{
    switch (expr.kind) {
      case ExprKind::IntLit:
        expr.type = types.intType();
        expr.isLvalue = false;
        break;
      case ExprKind::VarRef: {
        VarDecl *var = lookup(expr.name);
        if (!var)
            error(expr.loc, "use of undeclared '" + expr.name + "'");
        expr.varDecl = var;
        expr.type = var->valueType(types);
        // Arrays decay to pointers and are not assignable.
        expr.isLvalue = !var->isArray;
        break;
      }
      case ExprKind::Unary:
        checkUnary(expr);
        break;
      case ExprKind::Binary:
        checkBinary(expr);
        break;
      case ExprKind::Assign:
        checkAssign(expr);
        break;
      case ExprKind::Cond: {
        checkExpr(*expr.lhs);
        requireScalar(*expr.lhs, "'?:' condition");
        checkExpr(*expr.rhs);
        checkExpr(*expr.third);
        const Type *a = expr.rhs->type;
        const Type *b = expr.third->type;
        if (a->isArith() && b->isArith()) {
            expr.type = types.intType();
        } else if (a == b) {
            expr.type = a;
        } else if (a->isPtr() &&
                   implicitlyConvertible(*expr.third, a)) {
            expr.type = a;
        } else if (b->isPtr() &&
                   implicitlyConvertible(*expr.rhs, b)) {
            expr.type = b;
        } else {
            error(expr.loc, "incompatible '?:' operand types");
        }
        expr.isLvalue = false;
        break;
      }
      case ExprKind::Call:
        checkCall(expr);
        break;
      case ExprKind::Index:
        checkIndex(expr);
        break;
      case ExprKind::IncDec:
        checkIncDec(expr);
        break;
      case ExprKind::Cast: {
        checkExpr(*expr.lhs);
        const Type *target = expr.castType;
        if (target->isVoid()) {
            expr.type = target;
            expr.isLvalue = false;
            break;
        }
        if (!expr.lhs->type->isScalar())
            error(expr.loc, "cast of non-scalar value");
        expr.type = target;
        expr.isLvalue = false;
        break;
      }
      default:
        panic("checkExpr: bad expression kind");
    }
    elag_assert(expr.type != nullptr);
}

void
Sema::checkUnary(Expr &expr)
{
    checkExpr(*expr.lhs);
    const Type *opnd = expr.lhs->type;
    switch (expr.unaryOp) {
      case UnaryOp::Neg:
      case UnaryOp::BitNot:
        if (!opnd->isArith())
            error(expr.loc, "operand must be arithmetic");
        expr.type = types.intType();
        break;
      case UnaryOp::Not:
        if (!opnd->isScalar())
            error(expr.loc, "operand of '!' must be scalar");
        expr.type = types.intType();
        break;
      case UnaryOp::Deref:
        if (!opnd->isPtr())
            error(expr.loc, "cannot dereference non-pointer type '" +
                                opnd->toString() + "'");
        if (opnd->pointee->isVoid())
            error(expr.loc, "cannot dereference 'void*'");
        expr.type = opnd->pointee;
        expr.isLvalue = true;
        return;
      case UnaryOp::AddrOf:
        if (!expr.lhs->isLvalue)
            error(expr.loc, "cannot take the address of an rvalue");
        if (expr.lhs->kind == ExprKind::VarRef)
            expr.lhs->varDecl->addressTaken = true;
        expr.type = types.ptrTo(opnd);
        break;
      default:
        panic("checkUnary: bad unary op");
    }
    expr.isLvalue = false;
}

void
Sema::checkBinary(Expr &expr)
{
    checkExpr(*expr.lhs);
    checkExpr(*expr.rhs);
    const Type *lt = expr.lhs->type;
    const Type *rt = expr.rhs->type;
    BinaryOp op = expr.binaryOp;

    expr.isLvalue = false;

    if (op == BinaryOp::LogAnd || op == BinaryOp::LogOr) {
        requireScalar(*expr.lhs, "logical operand");
        requireScalar(*expr.rhs, "logical operand");
        expr.type = types.intType();
        return;
    }

    if (op == BinaryOp::Add) {
        if (lt->isPtr() && rt->isArith()) {
            expr.type = lt;
            return;
        }
        if (lt->isArith() && rt->isPtr()) {
            expr.type = rt;
            return;
        }
    }
    if (op == BinaryOp::Sub) {
        if (lt->isPtr() && rt->isArith()) {
            expr.type = lt;
            return;
        }
        if (lt->isPtr() && rt->isPtr()) {
            if (lt != rt)
                error(expr.loc, "subtraction of incompatible pointers");
            expr.type = types.intType();
            return;
        }
    }

    bool comparison = op == BinaryOp::Eq || op == BinaryOp::Ne ||
                      op == BinaryOp::Lt || op == BinaryOp::Le ||
                      op == BinaryOp::Gt || op == BinaryOp::Ge;
    if (comparison) {
        bool ok = (lt->isArith() && rt->isArith()) || lt == rt ||
                  (lt->isPtr() && implicitlyConvertible(*expr.rhs, lt)) ||
                  (rt->isPtr() && implicitlyConvertible(*expr.lhs, rt));
        if (!ok)
            error(expr.loc, "comparison of incompatible types");
        expr.type = types.intType();
        return;
    }

    if (!lt->isArith() || !rt->isArith()) {
        error(expr.loc,
              "invalid operand types '" + lt->toString() + "' and '" +
                  rt->toString() + "'");
    }
    expr.type = types.intType();
}

void
Sema::checkAssign(Expr &expr)
{
    checkExpr(*expr.lhs);
    checkExpr(*expr.rhs);
    if (!expr.lhs->isLvalue)
        error(expr.loc, "assignment target is not an lvalue");
    const Type *lt = expr.lhs->type;

    if (expr.isCompound) {
        // Validate the implied binary operation.
        const Type *rt = expr.rhs->type;
        bool pointer_adjust =
            lt->isPtr() && rt->isArith() &&
            (expr.binaryOp == BinaryOp::Add ||
             expr.binaryOp == BinaryOp::Sub);
        if (!pointer_adjust && (!lt->isArith() || !rt->isArith())) {
            error(expr.loc, "invalid compound assignment operands");
        }
    } else if (!implicitlyConvertible(*expr.rhs, lt)) {
        error(expr.loc,
              "cannot assign '" + expr.rhs->type->toString() +
                  "' to '" + lt->toString() + "'");
    }
    expr.type = lt;
    expr.isLvalue = false;
}

void
Sema::checkCall(Expr &expr)
{
    FuncDecl *fn = prog.findFunction(expr.name);
    if (!fn)
        error(expr.loc, "call to undefined function '" + expr.name + "'");
    expr.funcDecl = fn;
    if (expr.args.size() != fn->params.size()) {
        error(expr.loc,
              formatString("'%s' expects %zu arguments, got %zu",
                           fn->name.c_str(), fn->params.size(),
                           expr.args.size()));
    }
    for (size_t i = 0; i < expr.args.size(); ++i) {
        checkExpr(*expr.args[i]);
        const Type *want = fn->params[i]->valueType(types);
        if (!implicitlyConvertible(*expr.args[i], want)) {
            error(expr.args[i]->loc,
                  formatString("argument %zu to '%s': cannot convert "
                               "'%s' to '%s'",
                               i + 1, fn->name.c_str(),
                               expr.args[i]->type->toString().c_str(),
                               want->toString().c_str()));
        }
    }
    expr.type = fn->returnType;
    expr.isLvalue = false;
}

void
Sema::checkIndex(Expr &expr)
{
    checkExpr(*expr.lhs);
    checkExpr(*expr.rhs);
    const Type *base = expr.lhs->type;
    const Type *idx = expr.rhs->type;
    if (base->isArith() && idx->isPtr())
        std::swap(base, idx);
    if (!base->isPtr() || !idx->isArith())
        error(expr.loc, "invalid array subscript types");
    if (base->pointee->isVoid())
        error(expr.loc, "cannot index 'void*'");
    expr.type = base->pointee;
    expr.isLvalue = true;
}

void
Sema::checkIncDec(Expr &expr)
{
    checkExpr(*expr.lhs);
    if (!expr.lhs->isLvalue)
        error(expr.loc, "operand of ++/-- must be an lvalue");
    if (!expr.lhs->type->isScalar())
        error(expr.loc, "operand of ++/-- must be scalar");
    expr.type = expr.lhs->type;
    expr.isLvalue = false;
}

} // namespace lang
} // namespace elag
